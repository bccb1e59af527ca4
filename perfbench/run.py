"""Benchmark of the amu-spectra command line, end to end and per layer.

Usage, from the root of a source checkout (no install or build needed):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each workload makes its input with ``models gen`` (the set-up) and runs its
measured command as a child process, set-up and command again and again
until ``--seconds`` have passed (at least MIN_REPS times).
Every artifact is checked by the numpy oracle in oracle.py, and all runs
of one command must write identical bytes. ``--trace 0`` reports the
end-to-end metrics as medians over the runs; ``--trace 1`` alternates
untraced and traced runs and reports the per-layer metrics from the spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
give every metric with its unit, quartiles and sample count, and the
failed fraction. A results file with the same numbers, every run, the
oracle reports and the environment goes to .perfbench_out/. The exit code
is 0 when every run passed, 1 when some run failed, and 2 when the
benchmark cannot run at all (for example without the program's sources).
"""
from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One BLAS thread everywhere, also for the oracle's numpy in this process, so
# no run uses more threads than the workload's --threads.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import child  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from workloads import INPUT, OUTPUT, WORKLOADS, Workload, items  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
SETUP_EXTRA = 2  # set-up runs before the first measured run
MIN_REPS = 3
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {  # name: (unit, better)
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
}

# name: (unit, better, exact). Exact metrics are counts that must repeat run to run.
PER_LAYER = {
    "linalg.operator_norm.calls": ("count", "lower", True),
    "linalg.operator_norm.self_s": ("s", "lower", False),
    "linalg.operator_norm.work_d3": ("count", "lower", True),
    "spectrum.scan.s": ("s", "lower", False),
    "spectrum.scan.self_s": ("s", "lower", False),
    "spectrum.grid_points": ("count", "lower", True),
    "spectrum.products": ("count", "lower", True),
    "spectrum.accepted": ("count", "higher", True),
    "spectrum.prune_frac": ("ratio", "higher", True),
    "spectrum.accept_frac": ("ratio", "higher", True),
    "calculus.BumpFactorCache.s": ("s", "lower", False),
    "calculus.factor_matrix.calls": ("count", "lower", True),
    "calculus.factor_matrix.self_s": ("s", "lower", False),
    "calculus.factor_norm.calls": ("count", "lower", True),
    "linalg.eig_hermitian.calls": ("count", "lower", True),
    "linalg.eig_hermitian.self_s": ("s", "lower", False),
    "linalg.eig_hermitian.work_d3": ("count", "lower", True),
    "search.amu_at.calls": ("count", "lower", True),
    "search.amu_at.s": ("s", "lower", False),
    "search.amu_at.p50_ms": ("ms", "lower", False),
    "search.amu_at.p95_ms": ("ms", "lower", False),
    "search.localization_operator.self_s": ("s", "lower", False),
    "search.ground_state.self_s": ("s", "lower", False),
    "observables.measure.self_s": ("s", "lower", False),
    "observables.certified": ("count", "higher", True),
    "observables.certified_frac": ("ratio", "higher", True),
    "spectrum.hausdorff.s": ("s", "lower", False),
    "essential.tail_compression.s": ("s", "lower", False),
    "essential.levels": ("count", "higher", True),
    "models.load_tuple.s": ("s", "lower", False),
    "models.generate.s": ("s", "lower", False),
    "models.save_tuple.s": ("s", "lower", False),
    "models.input_bytes": ("bytes", "lower", True),
    "cli.self_s": ("s", "lower", False),
    "cli.artifact_bytes": ("bytes", "lower", True),
    "cli.workers": ("count", "higher", True),
    "trace.wall_s": ("s", "lower", False),
    "trace.overlap_s": ("s", "lower", False),
    "trace.spans": ("count", "lower", True),
    "trace.overhead_frac": ("ratio", "lower", False),
}


def summary(values: list[float]) -> dict:
    """Median, first and third quartile, and sample count."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def sha256_file(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "AMU_SPECTRA_THREADS")}
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment(workload: Workload, seed: int, env: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "thread_env": {var: env.get(var) for var in (*BLAS_THREAD_VARS, "AMU_SPECTRA_THREADS")},
        "workload_threads": workload.threads,
        "seed": seed,
        "seed_changes_input": workload.seeded,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "memory_ceiling_bytes": child.MEMORY_CEILING,
    }


class Session:
    """The child runs of one workload, with their checks."""

    def __init__(self, workload: Workload, seed: int, seconds: int, out: Path = OUT):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.out = out
        self.dir = out / "work" / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = child_env()
        self.deadline = time.monotonic() + DEADLINE_S
        self.runs: list[dict] = []
        self.oracle: dict[str, dict] = {}  # artifact sha256 -> report
        self.items: dict[str, int] = {}  # artifact sha256 -> items

    def run(self, role: str, trace: bool = False) -> dict:
        """One child: role "setup" runs ``models gen``, role "main" the measured command."""
        w = self.workload
        cli_argv = w.gen_argv(self.seed) if role == "setup" else w.run_argv()
        artifact = self.dir / (INPUT if role == "setup" else OUTPUT)
        spans = self.dir / f"{role}.spans.json"
        for stale in (artifact, spans):
            stale.unlink(missing_ok=True)
        argv = ([sys.executable, str(TRACED_CLI), str(spans), *cli_argv] if trace
                else [sys.executable, "-m", "amu_spectra.cli", *cli_argv])
        res = child.run(argv, cwd=str(self.dir), env=self.env,
                        log_path=str(self.dir / f"{role}.log"),
                        timeout=self.deadline - time.monotonic())
        rec = {"role": role, "traced": trace, "code": res.code, "wall_s": res.wall_s,
               "cpu_s": res.cpu_s, "peak_rss_mb": res.peak_rss_mb,
               "sha256": sha256_file(artifact), "error": None}
        if res.timed_out:
            rec["error"] = "killed at the time limit"
        elif res.code != 0:
            log = (self.dir / f"{role}.log").read_text(errors="replace")
            rec["error"] = f"exit code {res.code}: {log[-400:]}"
        elif rec["sha256"] is None:
            rec["error"] = f"no artifact {artifact.name}"
        elif role == "main" and rec["sha256"] not in self.oracle:
            self.oracle[rec["sha256"]] = oracle.check(
                w.kind, str(artifact), str(self.dir / INPUT), self.seed)
            with open(artifact, "r", encoding="utf-8") as fh:
                self.items[rec["sha256"]] = items(w.kind, json.load(fh))
        if trace and rec["error"] is None:
            rec["spans"] = tracing.load(str(spans))
            rec["artifact_bytes"] = artifact.stat().st_size
        self.runs.append(rec)
        return rec

    def repeat(self, step, minimum: int) -> None:
        """Call ``step`` until --seconds have passed, at least ``minimum`` times."""
        start = time.monotonic()
        done = 0
        while True:
            step()
            done += 1
            elapsed = time.monotonic() - start
            mean = elapsed / done
            if done >= minimum and elapsed + mean > self.seconds:
                return
            if time.monotonic() + 1.5 * mean > self.deadline:
                return

    def judge(self) -> None:
        """Mark failed runs: errors, oracle failures, and bytes that differ."""
        ledger_path = self.out / "ledger.json"
        try:
            ledger = json.loads(ledger_path.read_text())
        except (FileNotFoundError, ValueError):
            ledger = {}
        source = source_sha256()
        for role in ("setup", "main"):
            good = [r for r in self.runs if r["role"] == role and r["error"] is None]
            if not good:
                continue
            key = f"{source} {self.workload.name} {role} seed={self.seed if self.workload.seeded else '-'}"
            reference = ledger.setdefault(key, good[0]["sha256"])
            for r in good:
                if r["sha256"] != reference:
                    r["error"] = ("artifact bytes differ from another run of the same code "
                                  f"({r['sha256'][:12]} vs {reference[:12]})")
                elif role == "main" and not self.oracle[r["sha256"]]["ok"]:
                    r["error"] = "answer check failed: " + "; ".join(
                        self.oracle[r["sha256"]]["failures"][:3])
        tmp = ledger_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        os.replace(tmp, ledger_path)

    def ok(self, role: str) -> list[dict]:
        """Untraced runs of ``role`` that passed every check."""
        return [r for r in self.runs
                if r["role"] == role and not r["traced"] and r["error"] is None]


def measure(s: Session) -> dict:
    """End-to-end metrics: medians over untraced runs.

    A set-up run precedes every measured run, so both are sampled across the
    same stretch of time; the machine's speed drifts over seconds.
    """
    for _ in range(SETUP_EXTRA):
        s.run("setup")
    if not s.ok("setup"):
        return {}

    def step():
        s.run("setup")
        s.run("main")

    s.repeat(step, MIN_REPS)
    s.judge()
    mains, setups = s.ok("main"), s.ok("setup")
    if not mains:
        return {}
    return {
        "wall_s": summary([r["wall_s"] for r in mains]),
        "cpu_s": summary([r["cpu_s"] for r in mains]),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in mains]),
        "setup_s": summary([r["wall_s"] for r in setups]),
        "items_per_s": summary([s.items[r["sha256"]] / r["wall_s"] for r in mains]),
    }


def _merge(analyses: list[dict]) -> dict:
    merged: dict[str, dict] = {}
    for a in analyses:
        for name, agg in a["names"].items():
            m = merged.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work_d3": 0,
                                         "durations": [], "counts": {}})
            for key in ("calls", "s", "self_s", "work_d3"):
                m[key] += agg[key]
            m["durations"] = sorted(m["durations"] + agg["durations"])
            for key, val in agg["counts"].items():
                m["counts"][key] = m["counts"].get(key, 0) + val
    return merged


def layer_metrics(traced: list[dict], plain_wall_s: float, input_bytes: int) -> dict:
    """Per-layer metrics of one traced set-up plus one traced measured run."""
    analyses = [tracing.analyse(r["spans"]) for r in traced]
    names = _merge(analyses)

    def get(name: str, field: str) -> float:
        return names.get(name, {}).get(field, 0)

    def count(name: str, key: str) -> int:
        return names.get(name, {}).get("counts", {}).get(key, 0)

    grid = count("spectrum.scan", "grid_points")
    products = sum(tracing.products_in_scans(r["spans"]) for r in traced)
    accepted = count("spectrum.scan", "accepted")
    certs = get("search.amu_at", "calls")
    certified = count("search.amu_at", "certified")
    amu_ms = [d * 1e3 for d in names.get("search.amu_at", {}).get("durations", [])]
    return {
        "linalg.operator_norm.calls": get("linalg.operator_norm", "calls"),
        "linalg.operator_norm.self_s": get("linalg.operator_norm", "self_s"),
        "linalg.operator_norm.work_d3": get("linalg.operator_norm", "work_d3"),
        "spectrum.scan.s": get("spectrum.scan", "s"),
        "spectrum.scan.self_s": get("spectrum.scan", "self_s"),
        "spectrum.grid_points": grid,
        "spectrum.products": products,
        "spectrum.accepted": accepted,
        "spectrum.prune_frac": 1.0 - products / grid if grid else 0.0,
        "spectrum.accept_frac": accepted / products if products else 0.0,
        "calculus.BumpFactorCache.s": get("calculus.BumpFactorCache", "s"),
        "calculus.factor_matrix.calls": get("calculus.factor_matrix", "calls"),
        "calculus.factor_matrix.self_s": get("calculus.factor_matrix", "self_s"),
        "calculus.factor_norm.calls": get("calculus.factor_norm", "calls"),
        "linalg.eig_hermitian.calls": get("linalg.eig_hermitian", "calls"),
        "linalg.eig_hermitian.self_s": get("linalg.eig_hermitian", "self_s"),
        "linalg.eig_hermitian.work_d3": get("linalg.eig_hermitian", "work_d3"),
        "search.amu_at.calls": certs,
        "search.amu_at.s": get("search.amu_at", "s"),
        "search.amu_at.p50_ms": tracing.percentile(amu_ms, 50),
        "search.amu_at.p95_ms": tracing.percentile(amu_ms, 95),
        "search.localization_operator.self_s": get("search.localization_operator", "self_s"),
        "search.ground_state.self_s": get("search.ground_state", "self_s"),
        "observables.measure.self_s": get("observables.measure", "self_s"),
        "observables.certified": certified,
        "observables.certified_frac": certified / certs if certs else 0.0,
        "spectrum.hausdorff.s": get("spectrum.hausdorff", "s"),
        "essential.tail_compression.s": get("essential.tail_compression", "s"),
        "essential.levels": count("essential.essential_spectrum_estimate", "levels"),
        "models.load_tuple.s": get("models.load_tuple", "s"),
        "models.generate.s": get("models.generate", "s"),
        "models.save_tuple.s": get("models.save_tuple", "s"),
        "models.input_bytes": input_bytes,
        "cli.self_s": sum(agg["self_s"] for name, agg in names.items() if name.startswith("cli.")),
        "cli.artifact_bytes": traced[-1]["artifact_bytes"],
        "cli.workers": max(a["workers"] for a in analyses),
        "trace.wall_s": sum(a["wall_s"] for a in analyses),
        "trace.overlap_s": sum(a["overlap_s"] for a in analyses),
        "trace.spans": sum(len(r["spans"]) for r in traced),
        "trace.overhead_frac": sum(r["wall_s"] for r in traced) / plain_wall_s - 1.0,
    }


def trace(s: Session) -> dict:
    """Per-layer metrics: medians over pairs of an untraced and a traced run."""
    plain_gen = s.run("setup")
    traced_gen = s.run("setup", trace=True)
    if plain_gen["error"] or traced_gen["error"]:
        return {}
    input_bytes = (s.dir / INPUT).stat().st_size
    per_pair: list[dict] = []

    def pair():
        plain, traced = s.run("main"), s.run("main", trace=True)
        if plain["error"] is None and traced["error"] is None:
            per_pair.append(layer_metrics([traced_gen, traced],
                                          plain_gen["wall_s"] + plain["wall_s"], input_bytes))

    s.repeat(pair, 1)
    s.judge()
    if not per_pair:
        return {}
    out = {}
    for name, (_, _, exact) in PER_LAYER.items():
        values = [m[name] for m in per_pair]
        if exact and len(set(values)) > 1:
            s.runs[-1]["error"] = s.runs[-1]["error"] or f"{name} differs between traced runs: {values}"
        out[name] = summary(values)
    return out


def run_workload(workload: Workload, seed: int, seconds: int, traced: bool) -> dict:
    s = Session(workload, seed, seconds)
    env = environment(workload, seed, s.env)
    stats = trace(s) if traced else measure(s)
    units = {k: spec[0] for k, spec in (PER_LAYER if traced else END_TO_END).items()}
    failed = sum(1 for r in s.runs if r["error"] is not None)
    result = {
        "workload": workload.name,
        "trace": traced,
        "correct": failed == 0 and bool(stats),
        "attempted": len(s.runs),
        "failed": failed,
        "failed_frac": failed / max(len(s.runs), 1),
        "metrics": {k: dict(v, unit=units[k]) for k, v in stats.items()},
        "oracle": s.oracle,
        "runs": [{k: v for k, v in r.items() if k != "spans"} for r in s.runs],
        "environment": env,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"BENCH_{workload.name}_seed{seed}_trace{int(traced)}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"== {workload.name} (seed {seed}, trace {int(traced)}) -> {path.relative_to(ROOT)}")
    for name, st in result["metrics"].items():
        print(f"  {name:40s} {st['median']:14.6g} {st['unit']:6s} "
              f"q1 {st['q1']:.6g}  q3 {st['q3']:.6g}  n={st['n']}")
    print(f"  {'failed_frac':40s} {result['failed_frac']:14.6g} ratio  "
          f"({failed} of {len(s.runs)} runs)")
    for r in s.runs:
        if r["error"]:
            print(f"  failed {r['role']} run: {r['error']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "amu_spectra" / "cli.py").is_file():
        print(f"error: no amu_spectra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
               for n in names]
    prefix = len(results) > 1
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k):
                    {"value": v["median"], "unit": v["unit"]}
                    for r in results for k, v in r["metrics"].items()},
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
