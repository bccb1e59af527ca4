"""Acceptance gate: one test per headline guarantee, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Each test states its tolerance inline; timing budgets are asserted
with wall clocks.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from amu_spectra import (
    BumpFactorCache,
    ModelSpec,
    OperatorTuple,
    TOL,
    VectorState,
    amu_at,
    amu_check,
    build_grid,
    commutator_profile,
    generate,
    grid_step_count,
    hausdorff,
    measure,
    scan,
    superpose,
    theta_product,
)
from conftest import ground_energy, random_hermitian

REPO_ROOT = Path(__file__).resolve().parent.parent


def verdict(line: str) -> None:
    print(f"\n[acceptance] {line}")


def test_criterion_1_commuting_containment():
    """Joint spectra of commuting tuples land inside the eta-fattened scan."""
    started = time.monotonic()
    etas = (0.2, 0.35, 0.5)
    dims = (8, 16, 32, 64)
    checked_points = 0
    for case in range(100):
        n = 2 + (case % 2)
        dim = dims[case % 4]
        eta = etas[case % 3]
        tup = generate(ModelSpec("commuting_diag", dim, n=n, seed=case))
        grid = build_grid(n, tup.bound, eta)
        cache = BumpFactorCache(tup)
        joint = np.stack([np.diagonal(op.array).real for op in tup.ops], axis=1)
        for row in joint:
            nearest = np.clip(np.rint(row * grid.k), -grid.half, grid.half) / grid.k
            tp = theta_product(tup, tuple(float(c) for c in nearest), eta, cache=cache)
            assert tp.norm >= 1.0 - eta - TOL.accept_slack
            assert float(np.linalg.norm(row - nearest)) <= eta
            checked_points += 1
    # Cross-check a few full scans against the same containment property.
    for seed, eta in ((0, 0.5), (1, 0.35), (2, 0.2)):
        tup = generate(ModelSpec("commuting_diag", 16, n=2, seed=seed))
        res = scan(tup, eta)
        joint = np.stack([np.diagonal(op.array).real for op in tup.ops], axis=1)
        for row in joint:
            assert res.covers(row)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    verdict(
        f"criterion 1 PASS: 100 commuting tuples, {checked_points} joint "
        f"eigenvalues inside eta-balls of accepted points, {elapsed:.1f}s < 120s"
    )


def test_criterion_2_grid_law():
    """Step-count rule hits its two closed-form values and grids nest."""
    assert grid_step_count(2, 1.0, 0.5) == 12
    assert grid_step_count(1, 1.0, 1.0) == 5
    # Lattice containment D^eta within D^delta for finer delta, on nesting
    # pairs of resolutions (point sets only nest when the step counts
    # divide, so the sampled pairs are chosen with divisible counts).
    pairs = [(1.0, 0.42), (1.0, 0.28), (1.0, 0.205), (1.0, 0.165)]
    expected_fine = (10, 15, 20, 25)
    for (eta, delta), want_k in zip(pairs, expected_fine):
        coarse = build_grid(1, 1.0, eta)
        fine = build_grid(1, 1.0, delta)
        assert delta < eta
        assert fine.k == want_k
        assert fine.k % coarse.k == 0
        coarse_pts = {float(x) for x in coarse.axis_values}
        fine_pts = {float(x) for x in fine.axis_values}
        assert coarse_pts <= fine_pts
    verdict(
        "criterion 2 PASS: k(2,1,0.5)=12 and k(1,1,1)=5 exact; lattice "
        "containment on 4 nesting (eta, delta) pairs"
    )


def test_criterion_3_variance_domination():
    """Total variance never exceeds the localization energy; sd paths agree."""
    families = ("commuting_diag", "perturbed_commuting", "shift_pair", "dense")
    checked = 0
    worst_gap = -np.inf
    for case in range(500):
        family = families[case % 4]
        n = 2 + (case % 2)
        dim = 4 + (case % 5) * 5
        rng = np.random.default_rng(10_000 + case)
        if family == "dense":
            ops = tuple(
                random_hermitian(dim, seed=3 * case + j) for j in range(n)
            )
            tup = OperatorTuple(ops, bound=1.0)
        elif family == "shift_pair":
            tup = generate(ModelSpec("shift_pair", dim))
        else:
            tup = generate(ModelSpec(family, dim, n=n, seed=case))
        lam = tuple(rng.uniform(-1.0, 1.0, size=tup.n))
        cert = amu_at(tup, lam, 0.5, 0.5)
        state, energy = cert.state, ground_energy(tup, cert)
        rep = measure(tup, state)
        gap = sum(rep.var) - energy
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-10
        # sd recomputed along both algebraic paths agrees to 1e-10.
        for op, e, sd in zip(tup.ops, rep.exp, rep.sd):
            shifted = op.array @ state.vector - e * state.vector
            direct = float(np.vdot(shifted, shifted).real)
            quad = float(np.vdot(state.vector, op.array @ shifted - e * shifted).real)
            assert abs(direct - quad) <= 1e-10
            assert abs(np.sqrt(max(direct, 0.0)) - sd) <= 1e-10
        checked += 1
    verdict(
        f"criterion 3 PASS: {checked} instances, max(sum var - energy) = "
        f"{worst_gap:.3e} <= 1e-10, sd paths agree to 1e-10"
    )


def test_criterion_4_shift_pair_amu_circle():
    """Shift pair admits AMU states along the circle; doubling dim helps."""
    started = time.monotonic()
    sigma = eps = 0.2
    angles = [2.0 * np.pi * i / 16 for i in range(16)]

    def circle_sds(dim: int) -> list[float]:
        tup = generate(ModelSpec("shift_pair", dim))
        sds = []
        for th in angles:
            lam = (float(np.cos(th)), float(np.sin(th)))
            cert = amu_at(tup, lam, sigma, eps)
            assert cert.amu_member and cert.expectation_close, (dim, lam)
            sds.append(cert.max_sd)
        return sds

    sds_256 = circle_sds(256)
    sds_512 = circle_sds(512)
    increases = [b - a for a, b in zip(sds_256, sds_512)]
    assert max(increases) <= 1e-3
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    verdict(
        f"criterion 4 PASS: 16/16 circle points certified at sigma=eps=0.2 "
        f"(dim 256 worst sd {max(sds_256):.4f}); dim 512 sd change "
        f"<= {max(increases):.2e} <= 1e-3; {elapsed:.1f}s < 300s"
    )


def test_criterion_5_clock_shift_obstructed_family():
    """Clock-and-shift triple: small commutators, nonempty scan, AMU state."""
    dim = 32
    eta = 0.3
    tup = generate(ModelSpec("clock_shift_triple", dim, n=3))
    prof = commutator_profile(tup)
    bound = 2.0 * np.sin(np.pi / dim)
    assert prof.max() <= bound + 1e-12
    # Accepted point located by a candidate sweep during development and
    # frozen here; acceptance only needs one member of the eta=0.3 scan.
    lam = (-0.625, -0.75, 19.0 / 24.0)
    grid = build_grid(3, tup.bound, eta)
    on_grid = np.clip(np.rint(np.array(lam) * grid.k), -grid.half, grid.half) / grid.k
    assert np.allclose(on_grid, lam, atol=1e-12)
    tp = theta_product(tup, lam, eta)
    assert tp.norm >= 1.0 - eta - TOL.accept_slack
    cert = amu_at(tup, lam, sigma=0.35, eps=0.35)
    assert cert.amu_member and cert.expectation_close
    verdict(
        f"criterion 5 PASS: max commutator {prof.max():.4f} <= 2 sin(pi/32) = "
        f"{bound:.4f}; theta norm {tp.norm:.4f} accepts lambda={lam}; AMU "
        f"certified with max sd {cert.max_sd:.4f} < 0.35"
    )


def test_criterion_6_superposition_targets():
    """Convex mixing of certified states hits interior targets."""
    d = np.diag([0.0, 1.0])
    tup = OperatorTuple((d, d.copy()), bound=1.0)
    c0 = amu_check(tup, VectorState(np.array([1.0, 0.0])), (0.0, 0.0), 0.1, 0.1)
    c1 = amu_check(tup, VectorState(np.array([0.0, 1.0])), (1.0, 1.0), 0.1, 0.1)
    plan = superpose(tup, [c0, c1], (0.5, 0.5))
    exp_err = float(np.linalg.norm(np.asarray(plan.report.exp) - 0.5))
    assert exp_err <= 1e-10

    shift = generate(ModelSpec("shift_pair", 256))
    certs = []
    for th in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2):
        lam = (float(np.cos(th)), float(np.sin(th)))
        certs.append(amu_at(shift, lam, 0.2, 0.2))
    plan_shift = superpose(shift, certs, (0.0, 0.0))
    assert plan_shift.achieved_distance <= 0.15
    verdict(
        f"criterion 6 PASS: diagonal target exp error {exp_err:.2e} <= 1e-10; "
        f"shift 4-state centroid misses (0,0) by "
        f"{plan_shift.achieved_distance:.2e} <= 0.15"
    )


def test_criterion_7_hausdorff_metric_axioms():
    """Identity, symmetry, and the triangle inequality on 1000 seeded sets."""
    rng = np.random.default_rng(77)
    sets = [
        rng.uniform(-3, 3, size=(int(rng.integers(1, 12)), 2)) for _ in range(1000)
    ]
    for a in sets[:200]:
        assert hausdorff(a, a) == 0.0
    for i in range(0, 1000, 2):
        a, b = sets[i], sets[i + 1]
        assert hausdorff(a, b) == hausdorff(b, a) >= 0.0
    triangle_checked = 0
    for i in range(0, 999, 3):
        a, b, c = sets[i], sets[i + 1], sets[i + 2]
        assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-12
        triangle_checked += 1
    verdict(
        f"criterion 7 PASS: 1000 seeded sets; identity x200, symmetry x500, "
        f"triangle x{triangle_checked}"
    )


def run_cli(*args, threads: str) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "amu_spectra.cli", *args, "--threads", threads],
        capture_output=True,
        cwd=str(REPO_ROOT),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_8_cli_determinism(tmp_path):
    """spectrum and amu runs are byte-identical across thread counts."""
    from amu_spectra import save_tuple

    src = tmp_path / "shift128.json"
    save_tuple(generate(ModelSpec("shift_pair", 128)), src)
    spectrum_bytes = {}
    amu_bytes = {}
    for threads in ("1", "4"):
        out = tmp_path / f"spec_{threads}.json"
        run_cli("spectrum", "--input", str(src), "--eta", "0.5", "-o", str(out), threads=threads)
        spectrum_bytes[threads] = out.read_bytes()
        out_amu = tmp_path / f"amu_{threads}.json"
        run_cli(
            "amu", "--input", str(src), "--lambda", "all-accepted",
            "--eta", "0.5", "--sigma", "0.35", "--eps", "0.35",
            "-o", str(out_amu), threads=threads,
        )
        amu_bytes[threads] = out_amu.read_bytes()
    assert spectrum_bytes["1"] == spectrum_bytes["4"]
    assert amu_bytes["1"] == amu_bytes["4"]
    n_accepted = len(json.loads((tmp_path / "spec_1.json").read_text())["accepted"])
    verdict(
        f"criterion 8 PASS: shift dim 128 spectrum ({n_accepted} accepted "
        f"points) and amu outputs byte-identical for threads 1 and 4"
    )


def test_criterion_9_shift_commutator_documented():
    """Truncated shift pair commutator is exactly 1/2 and the docs say why."""
    for dim in (2, 3, 4, 8, 16, 64, 128, 256):
        tup = generate(ModelSpec("shift_pair", dim))
        prof = commutator_profile(tup)
        assert prof[0, 1] == pytest.approx(0.5, abs=1e-10), dim
        # The commutator itself is the rank-two corner matrix with
        # eigenvalue magnitudes 1/2.
        a1, a2 = tup.arrays()
        k = a1 @ a2 - a2 @ a1
        corner = np.zeros_like(k)
        corner[0, 0] = 0.5j
        corner[-1, -1] = -0.5j
        assert np.linalg.norm(k - corner) <= 1e-12
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "rank-one" in readme
    assert "0.5" in readme and "commutator" in readme.lower()
    verdict(
        "criterion 9 PASS: commutator norm 0.5 +- 1e-10 at dims 2..256 with "
        "exact corner structure; README documents the discrepancy with the "
        "idealized value 1"
    )
