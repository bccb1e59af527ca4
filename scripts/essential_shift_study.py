"""Desk study: essential-spectrum behavior of the truncated shift pair.

Runs interior-window compressions across a ladder of cuts, scans each
compressed tuple, and reports the Hausdorff stability of the estimates.
Also prints the commutator decay, as the operator norm of what the cut
leaves of the commutator K = T1 T2 - T2 T1: the one-sided column K[:, m:]
keeps its far corner, the interior window K[m:dim-m, m:dim-m] removes it.
Last comes an AMU sequence whose states are pushed away from the
truncation boundary: per cut m, the localization ground state of the
escaping window [m, min(2m, dim - m)), certified at one sigma and eps
against the full tuple. Each state is exactly orthogonal to the first m
basis vectors while the window widens with m, so the standard deviations
shrink as the cuts increase.

Every cut is checked before anything is printed; a bad one exits with
status 2.

Usage: python3 scripts/essential_shift_study.py [--dim 512] [--eta 0.5] [--cuts 32,64,128]
"""

from __future__ import annotations

import argparse

import numpy as np

from amu_spectra import (
    ModelSpec,
    OperatorTuple,
    VectorState,
    amu_at,
    amu_check,
    essential_spectrum_estimate,
    generate,
    operator_norm,
)


def escape_window(dim: int, m: int) -> tuple[int, int]:
    """The escaping window [m, min(2m, dim - m)) of cut ``m``, at least two indices wide.

    States supported here are orthogonal to the first m basis vectors and
    stay clear of the far boundary; the width grows with m up to dim/3.
    """
    stop = min(2 * m, dim - m)
    if stop - m < 2:
        raise ValueError(
            f"cut {m} leaves an escape window of size {stop - m} on dim {dim}; "
            "need at least 2"
        )
    return m, stop


def amu_sequence(tup: OperatorTuple, lam, cuts, sigma: float, eps: float) -> list:
    """One AMU certificate at (lam, sigma, eps) per cut, measured against the full tuple.

    The state for cut m is the ``amu_at`` state of the tuple compressed to
    the escaping window, embedded back with exact zeros elsewhere.
    """
    certs = []
    for m in cuts:
        lo, hi = escape_window(tup.dim, m)
        inner = OperatorTuple([op.array[lo:hi, lo:hi] for op in tup.ops], bound=tup.bound)
        full = np.zeros(tup.dim, dtype=np.complex128)
        full[lo:hi] = amu_at(inner, lam, sigma, eps).state.vector
        certs.append(amu_check(tup, VectorState(full), lam, sigma, eps))
    return certs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, default=512)
    ap.add_argument("--eta", type=float, default=0.5)
    ap.add_argument("--cuts", default="32,64,128")
    args = ap.parse_args()

    # The dim, the escape windows, then the estimate's interior windows are
    # checked before anything is printed.
    try:
        tup = generate(ModelSpec("shift_pair", args.dim))
        cuts = tuple(int(c) for c in args.cuts.split(","))
        for m in cuts:
            escape_window(tup.dim, m)
        est = essential_spectrum_estimate(tup, args.eta, cuts)
    except ValueError as exc:
        ap.error(str(exc))
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
