"""Desk study: essential-spectrum behavior of the truncated shift pair.

Runs interior-window compressions across a ladder of cuts, scans each
compressed tuple, and reports the Hausdorff stability of the estimates.
Also prints the commutator decay, as the operator norm of what the cut
leaves of the commutator K = T1 T2 - T2 T1: the one-sided column K[:, m:]
keeps its far corner, the interior window K[m:dim-m, m:dim-m] removes it.
Last comes an AMU sequence whose states are pushed away from the
truncation boundary.

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
    operator_norm,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, default=512)
    ap.add_argument("--eta", type=float, default=0.5)
    ap.add_argument("--cuts", default="32,64,128")
    args = ap.parse_args()
    cuts = tuple(int(c) for c in args.cuts.split(","))

    tup = generate(ModelSpec("shift_pair", args.dim))
    # The estimate checks every cut's window before anything is printed.
    est = essential_spectrum_estimate(tup, args.eta, cuts)
    t1, t2 = (op.array for op in tup.ops)
    k = t1 @ t2 - t2 @ t1
    print("commutator decay (cut: one-sided | interior):")
    for m in cuts:
        one_sided = operator_norm(k[:, m:])
        interior = operator_norm(k[m:args.dim - m, m:args.dim - m])
        print(f"  {m:4d}: {one_sided:.6f} | {interior:.6f}")

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
