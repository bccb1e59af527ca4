"""Answer checks for CLI artifacts, written with plain numpy only.

Nothing here imports amu_spectra: each check rebuilds the quantity from
its definition and compares it with what the program wrote.

* Scans (``spectrum`` and every ``essential`` level): the grid follows the
  resolution rule, accepted points lie on it with stored norms above the
  threshold, and for a seed-chosen sample
  of accepted and rejected grid points the ordered bump-product norm
  (``eigh``, trapezoid bump, product, ``np.linalg.norm(ord=2)``) gives the
  same decision and, for accepted points, the same norm within 1e-9.
* Certificates (``amu``): for every certificate, the state rebuilt from
  the interleaved ``state`` field gives the stored exp and sd within 1e-9
  and the flags follow sigma and eps; for a seed-chosen sample, the state
  also minimises the localization form and, for ``all-accepted``, its
  point passes the acceptance test.

A decision or flag within ``ACCEPT_SLACK`` of its threshold is listed
under ``near_threshold`` and not failed.
"""
from __future__ import annotations

import json
import math
import random

import numpy as np

ACCEPT_SLACK = 1e-9  # amu_spectra.constants.TOL.accept_slack
VALUE_TOL = 1e-9
SAMPLE = 12


def load_tuple(path: str) -> tuple[list[np.ndarray], float]:
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    ops = [np.asarray(op["re"], dtype=float) + 1j * np.asarray(op["im"], dtype=float)
           for op in d["ops"]]
    return ops, float(d["M"])


def bump(center: float, width: float, t: np.ndarray) -> np.ndarray:
    """1 within 3 width/4 of the center, 0 beyond width, linear between."""
    return np.clip((width - np.abs(t - center)) * 4.0 / width, 0.0, 1.0)


class ProductNorm:
    """Norm of the ordered bump product F_1 ... F_n of a tuple at a point."""

    def __init__(self, ops: list[np.ndarray]):
        self.eig = [np.linalg.eigh(op) for op in ops]

    def __call__(self, point, eta: float) -> float:
        prod = None
        for (w, u), c in zip(self.eig, point):
            factor = (u * bump(c, eta, w)) @ u.conj().T
            prod = factor if prod is None else prod @ factor
        return float(np.linalg.norm(prod, ord=2))


class Report:
    def __init__(self):
        self.checked = 0
        self.failures: list[str] = []
        self.near_threshold: list[str] = []

    def fail(self, msg: str) -> None:
        self.failures.append(msg)

    def decision(self, label: str, value: float, threshold: float, expect_above: bool) -> None:
        """Check ``value >= threshold`` against ``expect_above``, sparing near ties."""
        self.checked += 1
        if abs(value - threshold) <= ACCEPT_SLACK:
            self.near_threshold.append(f"{label}: {value!r} vs threshold {threshold!r}")
        elif (value >= threshold) != expect_above:
            self.fail(f"{label}: value {value!r}, threshold {threshold!r}, "
                      f"artifact says {'above' if expect_above else 'below'}")

    def close(self, label: str, got: float, want: float) -> None:
        self.checked += 1
        if not abs(got - want) <= VALUE_TOL:
            self.fail(f"{label}: artifact {got!r}, recomputed {want!r}")

    def as_dict(self) -> dict:
        return {"ok": not self.failures, "checked": self.checked,
                "failures": self.failures[:20], "failure_count": len(self.failures),
                "near_threshold": self.near_threshold}


def _check_scan(rep: Report, spec: dict, ops: list[np.ndarray], bound: float,
                rng: random.Random, label: str) -> None:
    eta, n, k = float(spec["eta"]), int(spec["n"]), int(spec["k"])
    if float(spec["M"]) != bound or n != len(ops):
        rep.fail(f"{label}: M/n {spec['M']}/{n} do not match the input {bound}/{len(ops)}")
        return
    rule_k = math.floor(2.0 * math.sqrt(n) * (bound + 1.0) / eta) + 1
    half = math.floor(bound * k)
    if k != rule_k:
        rep.fail(f"{label}: k={k}, resolution rule gives {rule_k}")
    if spec["meta"]["grid_points"] != (2 * half + 1) ** n:
        rep.fail(f"{label}: grid_points {spec['meta']['grid_points']} != {(2 * half + 1) ** n}")
    if spec["meta"]["accepted_count"] != len(spec["accepted"]):
        rep.fail(f"{label}: accepted_count does not match the accepted list")
    if spec["meta"]["slack"] != ACCEPT_SLACK:
        rep.fail(f"{label}: slack {spec['meta']['slack']} != {ACCEPT_SLACK}")
    accepted: dict[tuple[int, ...], float] = {}
    for entry in spec["accepted"]:
        idx = tuple(round(x * k) for x in entry["point"])
        if any(abs(m) > half or m / k != x for m, x in zip(idx, entry["point"])):
            rep.fail(f"{label}: accepted point {entry['point']} is not on the grid")
            return
        accepted[idx] = float(entry["norm"])
    if list(accepted) != sorted(accepted) or len(accepted) != len(spec["accepted"]):
        rep.fail(f"{label}: accepted points are not unique and in grid order")

    threshold = 1.0 - eta
    for idx, stored in accepted.items():
        rep.decision(f"{label} stored norm at {[m / k for m in idx]}", stored, threshold, True)
    norm = ProductNorm(ops)
    for idx in rng.sample(sorted(accepted), min(SAMPLE, len(accepted))):
        point = [m / k for m in idx]
        got = norm(point, eta)
        rep.decision(f"{label} accepted {point}", got, threshold, True)
        rep.close(f"{label} norm at {point}", accepted[idx], got)
    rejected = (2 * half + 1) ** n - len(accepted)
    tried = 0
    seen: set[tuple[int, ...]] = set()
    while len(seen) < min(SAMPLE, rejected) and tried < 100 * SAMPLE:
        tried += 1
        idx = tuple(rng.randint(-half, half) for _ in range(n))
        if idx in accepted or idx in seen:
            continue
        seen.add(idx)
        point = [m / k for m in idx]
        rep.decision(f"{label} rejected {point}", norm(point, eta), threshold, False)


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(max(d2.min(axis=1).max(), d2.min(axis=0).max())))


def check_spectrum(artifact: dict, input_path: str, seed: int) -> dict:
    rep = Report()
    ops, bound = load_tuple(input_path)
    _check_scan(rep, artifact, ops, bound, random.Random(seed), "spectrum")
    return rep.as_dict()


def check_essential(artifact: dict, input_path: str, seed: int) -> dict:
    rep = Report()
    ops, bound = load_tuple(input_path)
    rng = random.Random(seed)
    sets = []
    for level in artifact["levels"]:
        lo, hi = level["window"]
        window = [op[lo:hi, lo:hi] for op in ops]
        _check_scan(rep, level["spectrum"], window, bound, rng, f"cut {level['cut']}")
        sets.append(np.array([e["point"] for e in level["spectrum"]["accepted"]], dtype=float))
    if [lvl["cut"] for lvl in artifact["levels"]] != artifact["cuts"]:
        rep.fail("levels do not follow the cuts")
    last, prev = sets[-1], sets[-2]
    if artifact["stabilized"] != last.tolist():
        rep.fail("stabilized set is not the deepest level's accepted set")
    if len(last) and len(prev):
        rep.close("stability", float(artifact["stability"]), _hausdorff(last, prev))
    elif artifact["stability"] is not None:
        rep.fail("stability reported for an empty level")
    return rep.as_dict()


def check_amu(artifact: dict, input_path: str, seed: int) -> dict:
    rep = Report()
    ops, _ = load_tuple(input_path)
    rng = random.Random(seed)
    certs = artifact["certificates"]
    sigma, eps = float(artifact["sigma"]), float(artifact["eps"])
    scan = artifact.get("scan")
    if scan is not None and scan["accepted_count"] != len(certs):
        rep.fail(f"scan accepted {scan['accepted_count']} points but {len(certs)} certificates")
    norm = ProductNorm(ops) if scan is not None else None
    square = sum(op @ op for op in ops)
    sample = set(rng.sample(range(len(certs)), min(SAMPLE, len(certs))))
    for i, cert in enumerate(certs):
        lam = [float(x) for x in cert["lambda"]]
        flat = np.asarray(cert["state"], dtype=float)
        v = flat[0::2] + 1j * flat[1::2]
        rep.close(f"cert {i} state norm", float(np.linalg.norm(v)), 1.0)
        exps, sds = [], []
        for j, op in enumerate(ops):
            e = float(np.vdot(v, op @ v).real)
            sd = float(np.linalg.norm(op @ v - e * v))
            rep.close(f"cert {i} exp[{j}]", float(cert["exp"][j]), e)
            rep.close(f"cert {i} sd[{j}]", float(cert["sd"][j]), sd)
            exps.append(e)
            sds.append(sd)
        rep.decision(f"cert {i} amu_member", sigma, max(sds), cert["amu_member"])
        err = max(abs(e - lt) for e, lt in zip(exps, lam))
        rep.decision(f"cert {i} expectation_close", eps, err, cert["expectation_close"])
        if i not in sample:
            continue
        q = (square - 2.0 * sum(lt * op for lt, op in zip(lam, ops))
             + sum(lt * lt for lt in lam) * np.eye(len(v)))
        ground = float(np.linalg.eigvalsh(q)[0])
        rep.close(f"cert {i} localization energy", float(np.vdot(v, q @ v).real), ground)
        if norm is not None:
            eta = float(scan["eta"])
            rep.decision(f"cert {i} point accepted", norm(lam, eta), 1.0 - eta, True)
    return rep.as_dict()


CHECKS = {"spectrum": check_spectrum, "essential": check_essential, "amu": check_amu}


def check(kind: str, artifact_path: str, input_path: str, seed: int) -> dict:
    """Check one artifact; a file that does not parse is a failed check."""
    try:
        with open(artifact_path, "r", encoding="utf-8") as fh:
            artifact = json.load(fh)
        return CHECKS[kind](artifact, input_path, seed)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return {"ok": False, "checked": 0, "failures": [f"{type(exc).__name__}: {exc}"],
                "failure_count": 1, "near_threshold": []}
