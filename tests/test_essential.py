"""Interior-window compressions, the shift study's commutator decay, essential-spectrum estimates."""

from __future__ import annotations

import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from amu_spectra import (
    EssentialSpectrumEstimate,
    ModelSpec,
    OperatorTuple,
    amu_sequence,
    commutator_profile,
    escape_window,
    essential_spectrum_estimate,
    generate,
)
from amu_spectra.essential import _compress, _window


def test_tail_compression_one_sided_slices_diagonal():
    # _window makes only interior windows, but _compress takes any window,
    # the one-sided [m, dim) the shift study truncates to included.
    d = np.diag([0.0, 0.25, 0.5, 0.75])
    tup = OperatorTuple((d,), bound=1.0)
    tail = _compress(tup, (2, tup.dim))
    assert tail.dim == 2
    assert np.array_equal(tail.ops[0].array, np.diag([0.5, 0.75]))
    assert tail.bound == tup.bound


def test_tail_compression_interior_window():
    d = np.diag(np.linspace(-1.0, 1.0, 8))
    tup = OperatorTuple((d,), bound=1.0)
    window = _window(tup.dim, 2)
    assert window == (2, 6)
    tail = _compress(tup, window)
    assert tail.dim == 4
    assert np.array_equal(
        tail.ops[0].array, np.diag(np.linspace(-1.0, 1.0, 8)[2:6])
    )
    assert tail.bound == tup.bound


def test_tail_compression_validates_window():
    tup = generate(ModelSpec("shift_pair", 8))
    with pytest.raises(ValueError, match="window of size 0"):
        _window(tup.dim, 4)  # interior window empty
    assert _window(tup.dim, 3) == (3, 5)  # size-2 window is the floor
    tup16 = generate(ModelSpec("shift_pair", 16))
    for m in (8, 9, 15):
        with pytest.raises(ValueError, match="window of size"):
            _window(tup16.dim, m)
    with pytest.raises(ValueError, match="cut 16 must be below dim 16"):
        _window(tup16.dim, 16)


def test_compressed_shift_commutator_still_half():
    # A window of the truncated shift pair is a truncated shift pair again,
    # with its own boundary corners, so its commutator keeps the norm 1/2.
    tup = generate(ModelSpec("shift_pair", 64))
    prof = commutator_profile(_compress(tup, _window(tup.dim, 8)))
    assert prof[0, 1] == pytest.approx(0.5, abs=1e-12)


@functools.lru_cache(maxsize=None)
def _shift_study_decay_rows() -> tuple[tuple[str, str, str], ...]:
    """(cut, one-sided, interior) rows the shift study prints at dim 64, cuts 8 and 16."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "essential_shift_study.py"),
         "--dim", "64", "--cuts", "8,16"],
        capture_output=True, text=True, env=env, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == "commutator decay (cut: one-sided | interior):"
    rows = []
    for line in lines[1:3]:
        cut, values = line.split(":")
        one_sided, interior = values.split("|")
        rows.append((cut.strip(), one_sided.strip(), interior.strip()))
    return tuple(rows)


def test_tail_commutator_decay_shift_one_sided_constant():
    # The shift-pair commutator is a rank-two corner matrix; the study's
    # one-sided column truncation keeps the far corner, so the norm stays 1/2.
    rows = _shift_study_decay_rows()
    assert [(cut, one_sided) for cut, one_sided, _ in rows] == [
        ("8", "0.500000"), ("16", "0.500000")]


def test_tail_commutator_decay_shift_interior_vanishes():
    # Interior windows drop both corners and the commutator with them.
    rows = _shift_study_decay_rows()
    assert [(cut, interior) for cut, _, interior in rows] == [
        ("8", "0.000000"), ("16", "0.000000")]


def test_escape_window_geometry():
    assert escape_window(512, 32) == (32, 64)
    assert escape_window(512, 128) == (128, 256)
    assert escape_window(512, 200) == (200, 312)
    with pytest.raises(ValueError):
        escape_window(16, 15)


def test_essential_estimate_stabilizes_for_shift():
    tup = generate(ModelSpec("shift_pair", 160))
    est = essential_spectrum_estimate(tup, 0.5, (32, 64))
    assert [lv.cut for lv in est.levels] == [32, 64]
    pitch = 1.0 / est.levels[0].result.grid.k
    assert est.stability is not None
    assert est.stability <= pitch
    assert len(est.stabilized) > 0
    # The estimate hugs the unit circle like the full scan does.
    radii = np.linalg.norm(est.stabilized, axis=1)
    assert radii.min() >= 1.0 - 2 * 0.5 - 1e-9


def test_essential_estimate_validates_cuts():
    tup = generate(ModelSpec("shift_pair", 32))
    with pytest.raises(ValueError):
        essential_spectrum_estimate(tup, 0.5, (8,))  # needs two cuts
    with pytest.raises(ValueError):
        essential_spectrum_estimate(tup, 0.5, (8, 8))  # strictly increasing


@pytest.mark.parametrize("cut", [1.7, 3.2, 4.0, "4", None, True, np.True_])
def test_cuts_must_be_integers(cut):
    # int() would run the cut 1.7 as 1; every entry point takes cuts as integers.
    tup = generate(ModelSpec("shift_pair", 32))
    message = f"cut {cut!r} is not an integer"
    with pytest.raises(ValueError, match=re.escape(message)):
        essential_spectrum_estimate(tup, 0.5, [cut, 8])
    with pytest.raises(ValueError, match=re.escape(message)):
        _window(tup.dim, cut)
    with pytest.raises(ValueError, match=re.escape(message)):
        escape_window(tup.dim, cut)
    # numpy integers are integers.
    assert essential_spectrum_estimate(tup, 0.5, [np.int64(2), np.int32(4)]).cuts == (2, 4)


def test_essential_estimate_json_shape():
    tup = generate(ModelSpec("shift_pair", 96))
    est = essential_spectrum_estimate(tup, 0.5, (16, 32))
    d = est.to_json_dict()
    assert d["eta"] == 0.5
    assert d["cuts"] == [16, 32]
    assert len(d["levels"]) == 2
    assert d["stability"] == est.stability


def test_essential_estimate_reads_its_facts_from_its_levels():
    # The resolution, the cuts and the stabilized set are stored once, in the
    # levels, so an estimate cannot disagree with them.
    est = essential_spectrum_estimate(generate(ModelSpec("shift_pair", 48)), np.float64(0.5),
                                      (np.int64(4), 8))
    assert type(est.eta) is float and est.eta == est.levels[0].result.eta == 0.5
    assert est.cuts == (4, 8) == tuple(lvl.cut for lvl in est.levels)
    assert len(est.stabilized) > 0
    assert np.array_equal(est.stabilized, est.levels[-1].result.accepted_points())
    for name in ("eta", "cuts", "stabilized"):
        with pytest.raises(AttributeError):
            setattr(est, name, None)
    with pytest.raises(TypeError):
        EssentialSpectrumEstimate(eta=0.5, cuts=(4, 8), levels=est.levels,
                                  stabilized=est.stabilized, stability=est.stability)


def test_amu_sequence_sharpens_along_cuts():
    tup = generate(ModelSpec("shift_pair", 256))
    certs = amu_sequence(tup, (1.0, 0.0), (16, 32, 64), 0.3, 0.3)
    sds = [c.max_sd for c in certs]
    assert sds == sorted(sds, reverse=True)
    assert sds[-1] <= 0.15
    for c in certs:
        assert c.amu_member


def test_amu_sequence_states_escape_initial_block():
    tup = generate(ModelSpec("shift_pair", 256))
    certs = amu_sequence(tup, (1.0, 0.0), (16, 32), 0.3, 0.3)
    for cut, cert in zip((16, 32), certs):
        head = cert.state.vector[:cut]
        assert np.linalg.norm(head) <= 1e-12
