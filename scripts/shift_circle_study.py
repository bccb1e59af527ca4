"""Desk study: AMU quality of the truncated shift pair along the circle.

For each dimension the script certifies localized states at equispaced
circle points, all in one ``amu_batch`` call, reports how many were
certified with the worst standard deviation and the worst expectation
error, and finishes with a cat-state superposition aimed at the center
of the hull (a point far from the spectrum of either observable). It
prints the plan's phase-free cross-term bound and exits 1 if some
|exp_j - target_j| exceeds that bound plus the distance from the weighted
source points to the target.

Usage: python3 scripts/shift_circle_study.py [--dims 128,256,512] [--points 16] [--sigma 0.2]
"""

from __future__ import annotations

import argparse

import numpy as np

from amu_spectra import (
    ModelSpec,
    amu_batch,
    generate,
    superpose,
)


def circle(angles) -> list[tuple[float, float]]:
    """The points (cos th, sin th) of the unit circle at ``angles``."""
    return [(float(np.cos(th)), float(np.sin(th))) for th in angles]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", default="128,256,512")
    ap.add_argument("--points", type=int, default=16)
    ap.add_argument("--sigma", type=float, default=0.2)
    args = ap.parse_args()
    dims = [int(d) for d in args.dims.split(",")]
    angles = 2.0 * np.pi * np.arange(args.points) / args.points

    for dim in dims:
        tup = generate(ModelSpec("shift_pair", dim))
        certs = amu_batch(tup, circle(angles), args.sigma, args.sigma)
        certified = sum(int(c.amu_member and c.expectation_close) for c in certs)
        worst_sd = max((c.max_sd for c in certs), default=0.0)
        worst_exp = max((c.max_exp_error for c in certs), default=0.0)
        print(
            f"dim {dim:4d}: {certified}/{args.points} certified at "
            f"sigma={args.sigma}  worst sd {worst_sd:.6f}  "
            f"worst exp error {worst_exp:.6f}"
        )

    dim = dims[-1]
    tup = generate(ModelSpec("shift_pair", dim))
    certs = amu_batch(tup, circle((0.0, np.pi / 2, np.pi, 3 * np.pi / 2)), args.sigma, args.sigma)
    plan = superpose(tup, certs, (0.0, 0.0))
    print(
        f"superposition at dim {dim}: weights "
        f"{np.round(plan.weights, 4).tolist()}, exp "
        f"{np.round(plan.report.exp, 6).tolist()}, distance to target "
        f"{plan.achieved_distance:.2e}, per-axis sd "
        f"{np.round(plan.report.sd, 4).tolist()}, cross bound "
        f"[{', '.join(f'{c:.2e}' for c in plan.cross_bound)}]"
    )
    print(
        "note: the mixed state has large sd by design; it measures the "
        "convex combination of the source points, not a joint eigenvalue"
    )
    # Each |exp_j - target_j| is at most the cross-term bound plus the
    # distance from the weighted source points to the target.
    residual = float(np.linalg.norm(plan.weights @ plan.source_points - plan.target))
    miss = np.abs(np.subtract(plan.report.exp, plan.target))
    if np.any(miss > np.add(plan.cross_bound, residual)):
        print(f"FAIL: |exp - target| {miss.tolist()} exceeds the cross bound "
              f"+ {residual:.2e}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
