"""Command-line front end.

Subcommands: ``models`` generates observable tuples, ``spectrum`` runs the
acceptance scan, ``amu`` certifies states at target points, ``essential``
estimates behavior at infinity through compression levels.

Exit codes: 0 success, 2 configuration or parse error, 3 resource cap
exceeded, 4 numerical failure. Each command writes one JSON artifact; an
output path that names the input is a configuration error, refused before
anything is read. The thread count comes from ``--threads`` alone,
defaults to 1 and is capped at the cores the process may run on; at one
thread nothing runs on a worker. Output files contain no timestamps or
environment data, so reruns are byte-identical.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import GridCapExceeded, NumericalError, SpectraError
from .essential import essential_spectrum_estimate
from .models import (FAMILIES, JsonRows, ModelSpec, _family_params, family_name, generate,
                     load_tuple, save_tuple, write_json)
from .observables import AmuCertificate, _certificate_texts, as_point, commutator_profile
from .search import _solvable_point, amu_at, amu_batch, uses_band_path
from .spectrum import _thread_map, scan

__all__ = ["main", "build_parser"]

def _thread_count(raw: str) -> int:
    """A positive thread count, capped at the cores this process may run on.

    A pool starts a new thread for each task it is handed while none is
    idle, so an uncapped count could ask the system for one thread per
    point. The cores are the process's CPU affinity, or the machine's count
    where the system does not report one.
    """
    if not (raw.strip().isdecimal() and int(raw) >= 1):
        raise argparse.ArgumentTypeError(f"{raw!r} is not a positive integer (from --threads)")
    count = int(raw)
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return min(count, cores)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amu-spectra",
        description="Synthetic spectra and AMU state search for Hermitian tuples.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_models = sub.add_parser("models", help="generate observable tuples")
    models_sub = p_models.add_subparsers(dest="models_command", required=True)
    p_gen = models_sub.add_parser("gen", help="generate a model family as a JSON tuple file")
    p_gen.add_argument("family", help="family: " + ", ".join(
        f"{family.short} ({full})" for full, family in FAMILIES.items()))
    p_gen.add_argument("--dim", type=int, required=True, help="matrix dimension")
    p_gen.add_argument("--n", type=int, default=None,
                       help="observables per tuple (defaults to the family arity)")
    p_gen.add_argument("--seed", type=int, default=None,
                       help="draw seed in [0, 2**64) (default 0); only for " + " and ".join(
                           family.short for family in FAMILIES.values() if family.seeded))
    params = "; ".join(f"{family.short}: " + ", ".join(
        f"{key}={default}" for key, default in family.params.items())
        for family in FAMILIES.values() if family.params)
    p_gen.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                       help=f"family parameter, repeatable; a finite number ({params})")
    p_gen.add_argument("-o", "--output", required=True, help="JSON tuple file path")

    # Options of every command that scans a tuple file.
    scanning = argparse.ArgumentParser(add_help=False)
    scanning.add_argument("--input", required=True, help="tuple file")
    scanning.add_argument("--threads", type=_thread_count, default=1,
                          help="worker threads (default 1), at most the usable cores")
    scanning.add_argument("-o", "--output", required=True, help="JSON result path")

    p_spec = sub.add_parser("spectrum", parents=[scanning], help="scan a synthetic spectrum")
    p_spec.add_argument("--eta", type=float, required=True)

    p_amu = sub.add_parser("amu", parents=[scanning], help="certify AMU states at target points")
    p_amu.add_argument("--lambda", dest="lambdas", action="append", required=True,
                       metavar="COORDS",
                       help="comma-separated point, repeatable; or 'all-accepted'")
    p_amu.add_argument("--eta", type=float, default=None,
                       help="scan resolution for --lambda all-accepted")
    p_amu.add_argument("--sigma", type=float, required=True)
    p_amu.add_argument("--eps", type=float, required=True)

    p_ess = sub.add_parser("essential", parents=[scanning],
                           help="essential-spectrum estimate via compressions")
    p_ess.add_argument("--eta", type=float, required=True)
    p_ess.add_argument("--cuts", required=True, help="comma-separated strictly increasing cuts")
    return parser


def _parse_list(raw: str, convert, what: str) -> list:
    """The comma-separated entries of ``raw``, each through ``convert``; none may be empty."""
    tokens = raw.split(",")
    if any(tok.strip() == "" for tok in tokens):
        raise ValueError(f"empty entry in {what} {raw!r}")
    try:
        return [convert(tok) for tok in tokens]
    except ValueError:
        raise ValueError(f"could not parse {what} {raw!r}") from None


def _parse_point(raw: str, n: int) -> tuple[float, ...]:
    return as_point(_parse_list(raw, float, "point"), n, f"point {raw!r}")


def _cmd_models(args) -> int:
    family = family_name(args.family)
    if args.seed is not None and not FAMILIES[family].seeded:
        raise ValueError(f"models gen {args.family} draws nothing; drop --seed")
    seed = 0 if args.seed is None else args.seed
    n = args.n
    if n is None:
        n = FAMILIES[family].n or 2
    # Values stay strings; a pair without "=" has an empty value, which every key refuses.
    given = dict(pair.partition("=")[::2] for pair in args.param)
    params = _family_params(family, given)
    tup = generate(ModelSpec(family=family, dim=args.dim, n=n, seed=seed, params=params))
    profile = commutator_profile(tup)
    meta = {
        "family": family,
        "seed": seed,
        "params": {key: params[key] for key in sorted(given)},
        "commutator_norms": [[float(x) for x in row] for row in profile],
    }
    save_tuple(tup, args.output, meta=meta)
    print(f"wrote {family} tuple (n={tup.n}, dim={tup.dim}) to {args.output}")
    return 0


def _cmd_spectrum(args) -> int:
    tup, _ = load_tuple(args.input)
    result = scan(tup, args.eta, threads=args.threads)
    write_json(result.to_json_dict(), args.output)
    print(
        f"scanned {result.grid.count} grid points (k={result.grid.k}), "
        f"accepted {len(result.accepted)}"
    )
    return 0


def _cmd_amu(args) -> int:
    # Before any scan or eigensolve; an infinite sigma would also not be JSON.
    if not (0.0 < args.sigma < math.inf and 0.0 < args.eps < math.inf):
        raise ValueError("sigma and eps must be positive and finite")
    all_accepted = "all-accepted" in args.lambdas
    if all_accepted and len(args.lambdas) > 1:
        raise ValueError("--lambda all-accepted cannot be combined with explicit points")
    if all_accepted and args.eta is None:
        raise ValueError("--lambda all-accepted requires --eta")
    if args.eta is not None and not all_accepted:
        raise ValueError("--eta applies only to --lambda all-accepted")
    tup, _ = load_tuple(args.input)
    scan_meta = None
    if all_accepted:
        result = scan(tup, args.eta, threads=args.threads, norms=False)
        points = result.accepted_points()
        scan_meta = {"eta": args.eta, "k": result.grid.k,
                     "accepted_count": len(result.accepted)}
        # Every bump factor of an accepted point is at least 1 - eta, so for a
        # commuting tuple some joint eigenvalue lies within this of it on each axis.
        reach = args.eta * (3.0 + args.eta) / 4.0
        if args.eps <= reach:
            print(f"note: eps {args.eps:g} is at most eta (3 + eta) / 4 = {reach:g}; an "
                  f"accepted point can lie that far from every joint eigenvalue on one "
                  f"axis, so it can fail even when the tuple commutes", file=sys.stderr)
    else:
        points = [_parse_point(raw, tup.n) for raw in args.lambdas]
    for point in points:  # every point is checked before the first solve
        _solvable_point(point, tup.n)

    if uses_band_path(tup):
        certs = amu_batch(tup, points, args.sigma, args.eps)
    else:
        def certify(point):
            return amu_at(tup, point, args.sigma, args.eps)

        certs = _thread_map(certify, points, threads=args.threads)

    certified = 0
    for cert in certs:
        ok = cert.amu_member and cert.expectation_close
        certified += int(ok)
        if ok and all_accepted:
            continue  # a scan lists only the points that fail
        coords = ",".join(f"{x:.6g}" for x in cert.lam)
        print(
            f"lambda=({coords}) max_sd={cert.max_sd:.6f} "
            f"max_exp_err={cert.max_exp_error:.6f} "
            f"amu={cert.amu_member} close={cert.expectation_close}"
        )
    payload = {
        "sigma": args.sigma,
        "eps": args.eps,
        "certificates": JsonRows(certs, AmuCertificate.to_json_dict, _certificate_texts),
    }
    if scan_meta is not None:
        payload["scan"] = scan_meta
    write_json(payload, args.output)
    print(f"certified {certified}/{len(certs)} points")
    return 0


def _cmd_essential(args) -> int:
    tup, _ = load_tuple(args.input)
    cuts = _parse_list(args.cuts, int, "cuts")
    estimate = essential_spectrum_estimate(tup, args.eta, cuts, threads=args.threads)
    write_json(estimate.to_json_dict(), args.output)
    for lvl in estimate.levels:
        print(f"cut={lvl.cut} window={lvl.window} accepted={len(lvl.result.accepted)}")
    stability = "n/a" if estimate.stability is None else f"{estimate.stability:.6f}"
    pitch = estimate.levels[-1].result.grid.pitch
    print(f"stability={stability} (grid pitch {pitch:.6f})")
    return 0


def _same_file(a: str, b: str) -> bool:
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _check_paths(args) -> None:
    """Refuse an output path that names the input, which it would overwrite."""
    if _same_file(args.input, args.output):
        raise ValueError(f"-o {args.output!r} names the same file as --input {args.input!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "models":
            return _cmd_models(args)
        _check_paths(args)
        if args.command == "spectrum":
            return _cmd_spectrum(args)
        if args.command == "amu":
            return _cmd_amu(args)
        if args.command == "essential":
            return _cmd_essential(args)
        raise ValueError(f"unknown command {args.command!r}")
    except GridCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (SpectraError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
