"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root: python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import oracle
import run
import tracing
from workloads import INPUT, OUTPUT, WORKLOADS, Workload

TINY = {
    "spectrum": Workload("tiny-spectrum", "spectrum",
                         ("perturbed", "--dim", "8", "--n", "2", "--seed", "{seed}",
                          "--param", "perturbation=0.2"),
                         ("spectrum", "--eta", "0.5"), 1, True),
    "essential": Workload("tiny-essential", "essential", ("shift", "--dim", "40"),
                          ("essential", "--eta", "0.5", "--cuts", "4,8"), 1, False),
    "amu": Workload("tiny-amu-t2", "amu", ("shift", "--dim", "12"),
                    ("amu", "--lambda", "all-accepted", "--eta", "0.5",
                     "--sigma", "0.35", "--eps", "0.35"), 2, False),
}


def traced_session(kind: str, tmp_path: Path, pairs: int = 1) -> tuple[run.Session, list[dict]]:
    """A set-up pair and ``pairs`` measured pairs, each an untraced and a traced run."""
    s = run.Session(TINY[kind], seed=3, seconds=1, out=tmp_path)
    plain_gen, traced_gen = s.run("setup"), s.run("setup", trace=True)
    metrics = []
    for _ in range(pairs):
        plain, traced = s.run("main"), s.run("main", trace=True)
        metrics.append(run.layer_metrics([traced_gen, traced],
                                         plain_gen["wall_s"] + plain["wall_s"],
                                         (s.dir / INPUT).stat().st_size))
    s.judge()
    assert [r["error"] for r in s.runs] == [None] * len(s.runs)
    return s, metrics


@pytest.mark.parametrize("kind", sorted(TINY))
def test_counts_repeat_and_traced_artifacts_match(kind, tmp_path):
    s, metrics = traced_session(kind, tmp_path, pairs=2)
    for role in ("setup", "main"):
        assert len({r["sha256"] for r in s.runs if r["role"] == role}) == 1
    exact = [name for name, (_, _, is_exact) in run.PER_LAYER.items() if is_exact]
    assert {n: metrics[0][n] for n in exact} == {n: metrics[1][n] for n in exact}
    assert metrics[0]["models.generate.s"] > 0 and metrics[0]["models.load_tuple.s"] > 0
    assert metrics[0]["spectrum.grid_points"] > 0


@pytest.mark.parametrize("kind", sorted(TINY))
def test_self_times_sum_with_cli_to_wall(kind, tmp_path):
    s, _ = traced_session(kind, tmp_path)
    main = [r for r in s.runs if r["traced"] and r["role"] == "main"][0]
    a = tracing.analyse(main["spans"])
    assert min(a["self"].values()) >= 0.0
    layers = sum(agg["self_s"] for name, agg in a["names"].items() if not name.startswith("cli."))
    cli_self = sum(agg["self_s"] for name, agg in a["names"].items() if name.startswith("cli."))
    assert layers + cli_self == pytest.approx(a["wall_s"] + a["overlap_s"], abs=1e-6)
    if TINY[kind].threads == 1:
        assert a["overlap_s"] == pytest.approx(0.0, abs=1e-9)


def test_worker_spans_attach_to_the_submitting_span(tmp_path):
    s, metrics = traced_session("amu", tmp_path)
    spans = [r for r in s.runs if r["traced"] and r["role"] == "main"][0]["spans"]
    by_id = {sp[0]: sp for sp in spans}
    crossing = [(sp, by_id[sp[2]]) for sp in spans
                if sp[2] is not None and by_id[sp[2]][3] != sp[3]]
    assert crossing, "no span ran on a worker thread"
    for sp, parent in crossing:
        assert sp[3].startswith("ThreadPoolExecutor-") and parent[3] == "MainThread"
        assert parent[4] <= sp[4] and sp[5] <= parent[5]
        assert (sp[1], parent[1]) in {("search.amu_at", "cli.main"),
                                      ("linalg.operator_norm", "spectrum.scan"),
                                      ("calculus.factor_matrix", "spectrum.scan")}
    assert {sp[1] for sp, _ in crossing} >= {"search.amu_at", "linalg.operator_norm"}
    assert all(sp[2] is not None for sp in spans if sp[3] != "MainThread")
    assert metrics[0]["cli.workers"] >= 1 and metrics[0]["trace.overlap_s"] > 0


def _bump_norms(d: dict) -> None:
    for entry in d["accepted"]:
        entry["norm"] += 1e-6


def _move_point(d: dict) -> None:
    d["accepted"][0]["point"][0] += 0.5 / d["k"]


CORRUPTIONS = {
    "spectrum norm": ("spectrum", _bump_norms),
    "spectrum off grid": ("spectrum", _move_point),
    "spectrum k": ("spectrum", lambda d: d.update(k=d["k"] + 1)),
    "essential norm": ("essential", lambda d: _bump_norms(d["levels"][0]["spectrum"])),
    "essential stability": ("essential", lambda d: d.update(stability=d["stability"] + 0.01)),
    "amu state": ("amu", lambda d: [c["state"].__setitem__(0, c["state"][0] + 1e-3)
                                    for c in d["certificates"]]),
    "amu sd": ("amu", lambda d: [c["sd"].__setitem__(1, c["sd"][1] * 1.001)
                                 for c in d["certificates"]]),
    "amu flag": ("amu", lambda d: [c.update(amu_member=not c["amu_member"])
                                   for c in d["certificates"]]),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_oracle_flags_a_corrupted_artifact(case, tmp_path):
    kind, corrupt = CORRUPTIONS[case]
    s, _ = traced_session(kind, tmp_path)
    artifact, source = s.dir / OUTPUT, s.dir / INPUT
    assert oracle.check(kind, str(artifact), str(source), 3)["ok"]
    d = json.loads(artifact.read_text())
    corrupt(d)
    artifact.write_text(json.dumps(d))
    report = oracle.check(kind, str(artifact), str(source), 3)
    assert not report["ok"] and report["failure_count"] >= 1


def test_a_changed_artifact_fails_the_run(tmp_path):
    s = run.Session(TINY["spectrum"], seed=3, seconds=1, out=tmp_path)
    s.run("setup")
    s.run("main")
    s.judge()
    s.runs.clear()
    (s.dir / INPUT).write_text((s.dir / INPUT).read_text().replace('"M": 1.0', '"M": 1.5'))
    rec = s.run("main")
    s.judge()
    assert rec["error"] and "differ" in rec["error"]


def test_memory_ceiling_makes_a_failed_run_not_an_oom(tmp_path):
    # 2 GiB of untouched address space: allowed under 8 GiB, refused under 1 GiB.
    argv = [sys.executable, "-c", "import numpy; numpy.empty(2**28)"]
    codes = {}
    for ceiling in (8 << 30, 1 << 30):
        res = child.run(argv, cwd=str(tmp_path), env=run.child_env(),
                        log_path=str(tmp_path / "log"), timeout=60, ceiling=ceiling)
        assert not res.timed_out
        codes[ceiling] = res.code
    assert codes == {8 << 30: 0, 1 << 30: 1}
    assert "MemoryError" in (tmp_path / "log").read_text()


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: (unit, better) for k, (unit, better, _) in run.PER_LAYER.items()}


def test_exits_nonzero_without_the_program_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "essential-shift256",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0 and out.stdout.strip() == ""
