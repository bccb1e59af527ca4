"""Desk study: essential-spectrum behavior of the truncated shift pair.

Runs interior-window compressions across a ladder of cuts, scans each
compressed tuple, and reports the Hausdorff stability of the estimates.
Also prints the commutator decay (one-sided columns keep the far corner
of the commutator, interior windows remove it) and an AMU sequence whose
states are pushed away from the truncation boundary.

Usage: python3 scripts/essential_shift_study.py [--dim 512] [--eta 0.5]
"""

from __future__ import annotations

import argparse

import numpy as np

from amu_spectra import (
    ModelSpec,
    amu_sequence,
    essential_spectrum_estimate,
    generate,
    tail_commutator_decay,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, default=512)
    ap.add_argument("--eta", type=float, default=0.5)
    ap.add_argument("--cuts", default="32,64,128")
    args = ap.parse_args()
    cuts = tuple(int(c) for c in args.cuts.split(","))

    tup = generate(ModelSpec("shift_pair", args.dim))
    one_sided = tail_commutator_decay(tup, cuts)
    interior = tail_commutator_decay(tup, cuts, interior=True)
    print("commutator decay (cut: one-sided | interior):")
    for (m, v1), (_, v2) in zip(one_sided, interior):
        print(f"  {m:4d}: {v1:.6f} | {v2:.6f}")

    est = essential_spectrum_estimate(tup, args.eta, cuts)
    for level in est.levels:
        pts = level.result.accepted_points()
        radii = np.linalg.norm(pts, axis=1)
        print(
            f"cut {level.cut:4d}: window {level.window}, "
            f"{len(pts)} accepted, radius range "
            f"[{radii.min():.4f}, {radii.max():.4f}]"
        )
    pitch = 1.0 / est.levels[-1].result.grid.k
    print(f"stability {est.stability} (grid pitch {pitch:.4f})")

    lam = (1.0, 0.0)
    certs = amu_sequence(tup, lam, cuts, 0.2, 0.2)
    print(f"AMU sequence at lambda={lam}:")
    for m, cert in zip(cuts, certs):
        print(
            f"  cut {m:4d}: max sd {cert.max_sd:.6f}  "
            f"max exp error {cert.max_exp_error:.6f}  "
            f"member={cert.amu_member}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
