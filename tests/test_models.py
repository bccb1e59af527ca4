"""Model families, counter-based RNG, tuple serialization."""

from __future__ import annotations

import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from amu_spectra import (
    ModelSpec,
    TupleFormatError,
    commutator_profile,
    generate,
    load_tuple,
    save_tuple,
)
from amu_spectra.models import (FAMILIES, JsonRows, family_name, splitmix64, uniform_doubles,
                                write_json)
from amu_spectra.spectrum import GridSpec, SyntheticSpectrumResult


def test_splitmix64_reference_vector():
    # Published reference outputs for seed 0 (Vigna's splitmix64.c).
    got = [int(v) for v in splitmix64(0, 3)]
    assert got == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_splitmix64_is_counter_based():
    # Streams are position-addressable: the tail of a long draw equals
    # a fresh draw of the same positions.
    full = splitmix64(99, 10)
    assert np.array_equal(full, splitmix64(99, 10))
    assert not np.array_equal(splitmix64(1, 4), splitmix64(2, 4))


def test_uniform_doubles_range_and_determinism():
    u = uniform_doubles(42, 1000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert np.array_equal(u, uniform_doubles(42, 1000))
    # 53-bit mantissa construction: mean near 1/2 at this sample size.
    assert abs(float(u.mean()) - 0.5) < 0.05


def test_family_registry():
    assert set(FAMILIES) == {
        "shift_pair",
        "commuting_diag",
        "perturbed_commuting",
        "clock_shift_triple",
    }
    with pytest.raises(ValueError, match="unknown family"):
        generate(ModelSpec("no_such_family", 8))
    assert family_name("clock") == family_name("clock_shift_triple") == "clock_shift_triple"
    with pytest.raises(ValueError, match="unknown family"):
        family_name("shift_pairs")
    # Families with a fixed n reject any other.
    for name, (_, fixed_n, _, _, _) in FAMILIES.items():
        if fixed_n is not None:
            with pytest.raises(ValueError, match=f"pass n={fixed_n}"):
                generate(ModelSpec(name, 4, n=fixed_n + 1))


@pytest.mark.parametrize("spec, key", [
    (ModelSpec("perturbed_commuting", 8, params={"pertubation": 0.2}), "pertubation"),
    (ModelSpec("commuting_diag", 8, params={"perturbation": 0.2}), "perturbation"),
    (ModelSpec("shift_pair", 8, params={"eigen_low": -0.5}), "eigen_low"),
    (ModelSpec("clock_shift_triple", 8, n=3, params={"seed": 1}), "seed"),
])
def test_generate_rejects_parameters_the_family_does_not_read(spec, key):
    with pytest.raises(ValueError, match=f"no parameter '{key}'"):
        generate(spec)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, True, 1.0, "0"])
def test_generate_refuses_seeds_outside_the_splitmix_range(seed):
    # SplitMix64 reads a seed modulo 2^64, so 2^64 would draw seed 0's matrices.
    for family in ("commuting_diag", "shift_pair"):
        with pytest.raises(ValueError, match=re.escape(f"got {seed!r}")):
            generate(ModelSpec(family, 4, seed=seed))
    last, first = (generate(ModelSpec("commuting_diag", 4, seed=s)) for s in (2 ** 64 - 1, 0))
    assert not np.array_equal(last.ops[0].array, first.ops[0].array)


def test_shift_pair_dim2_exact():
    tup = generate(ModelSpec("shift_pair", 2))
    a1, a2 = (op.array for op in tup.ops)
    assert np.array_equal(a1, np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert np.array_equal(a2, np.array([[0.0, -0.5j], [0.5j, 0.0]]))
    assert tup.bound == 1.0


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 64])
def test_shift_pair_commutator_half(dim):
    tup = generate(ModelSpec("shift_pair", dim))
    prof = commutator_profile(tup)
    assert prof[0, 1] == pytest.approx(0.5, abs=1e-10)


def test_shift_pair_norms_bounded():
    tup = generate(ModelSpec("shift_pair", 32))
    for op in tup.ops:
        assert np.linalg.norm(op.array, 2) <= 1.0 + 1e-9


def test_commuting_diag_eigen_range():
    spec = ModelSpec(
        "commuting_diag", 16, n=3, seed=7, params={"eigen_low": -0.25, "eigen_high": 0.75}
    )
    tup = generate(spec)
    assert tup.n == 3
    assert commutator_profile(tup).max() == 0.0
    for op in tup.ops:
        d = np.diagonal(op.array).real
        assert d.min() >= -0.25 and d.max() <= 0.75


def test_commuting_diag_seed_sensitivity():
    a = generate(ModelSpec("commuting_diag", 8, seed=1))
    b = generate(ModelSpec("commuting_diag", 8, seed=2))
    assert not np.array_equal(a.ops[0].array, b.ops[0].array)
    again = generate(ModelSpec("commuting_diag", 8, seed=1))
    assert np.array_equal(a.ops[0].array, again.ops[0].array)


def test_perturbed_commuting_exact_perturbation_norm():
    t = 0.05
    ranges = {"eigen_low": -0.9, "eigen_high": 0.9}
    base = generate(ModelSpec("commuting_diag", 12, n=2, seed=9, params=ranges))
    pert = generate(
        ModelSpec(
            "perturbed_commuting", 12, n=2, seed=9,
            params={"perturbation": t, **ranges},
        )
    )
    for b, p in zip(base.ops, pert.ops):
        delta = p.array - b.array
        assert np.linalg.norm(delta, 2) == pytest.approx(t, abs=1e-10)
    # Two observables get independent perturbation streams.
    d0 = pert.ops[0].array - base.ops[0].array
    d1 = pert.ops[1].array - base.ops[1].array
    assert np.linalg.norm(d0 - d1, 2) > t / 10


def test_perturbed_commutators_small():
    t = 0.05
    tup = generate(
        ModelSpec("perturbed_commuting", 12, n=2, seed=9, params={"perturbation": t})
    )
    # [D+tE, D'+tF] = t([D,F]+[E,D']) + t^2[E,F], every bracket of norm <= 2.
    assert commutator_profile(tup).max() <= 4 * t + 4 * t * t + 1e-12


def test_clock_shift_triple_structure():
    dim = 16
    tup = generate(ModelSpec("clock_shift_triple", dim, n=3))
    assert tup.n == 3
    a1, a2, a3 = (op.array for op in tup.ops)
    # First two observables are the real and imaginary parts of one
    # unitary, so they commute exactly.
    assert np.linalg.norm(a1 @ a2 - a2 @ a1, 2) <= 1e-12
    prof = commutator_profile(tup)
    assert prof.max() <= 2.0 * np.sin(np.pi / dim) + 1e-10


def test_clock_shift_requires_n3():
    with pytest.raises(ValueError):
        generate(ModelSpec("clock_shift_triple", 16, n=2))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_resaving_a_loaded_tuple_writes_its_bytes(tmp_path, family):
    fixed_n = FAMILIES[family].n
    tup = generate(ModelSpec(family, 6, n=fixed_n or 3, seed=5 if FAMILIES[family].seeded else 0))
    meta = {"family": family, "label": "\u00e9t\u00e9", "params": {}, "norms": [[0.1, 1e-300]]}
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    save_tuple(tup, first, meta=meta)
    loaded, loaded_meta = load_tuple(first)
    assert loaded_meta == meta
    assert loaded.bound == tup.bound
    assert all(np.array_equal(a, b) for a, b in zip(loaded.arrays(), tup.arrays()))
    save_tuple(loaded, again, meta=loaded_meta)
    assert again.read_bytes() == first.read_bytes()


def test_load_sniffs_content_not_extension(tmp_path, commuting_16):
    # Every tuple file is JSON, whatever its name.
    path = tmp_path / "mislabeled.npz"
    save_tuple(commuting_16, path)
    loaded, _ = load_tuple(path)
    assert np.array_equal(loaded.ops[0].array, commuting_16.ops[0].array)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(TupleFormatError):
        load_tuple(path)


def test_load_rejects_missing_keys(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"n": 1, "dim": 2}))
    with pytest.raises(TupleFormatError):
        load_tuple(path)


def test_load_rejects_nonhermitian(tmp_path):
    payload = {
        "n": 1,
        "dim": 2,
        "M": 1.0,
        "ops": [{"re": [[0.0, 1.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}],
    }
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(TupleFormatError) as info:
        load_tuple(path)
    assert "operator 0" in str(info.value)


def test_load_rejects_shape_mismatch(tmp_path):
    payload = {
        "n": 1,
        "dim": 3,
        "M": 1.0,
        "ops": [{"re": [[0.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}],
    }
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(TupleFormatError):
        load_tuple(path)


_SQUARE = [[0.0, 0.0], [0.0, 0.0]]
_NPZ = {"n": np.array(1), "dim": np.array(2), "M": np.array(1.0), "ops": np.zeros((1, 2, 2))}


def _tuple_text(**fields) -> str:
    """A one-operator 2 x 2 tuple file's text, with ``fields`` in place of its own."""
    return json.dumps({"n": 1, "dim": 2, "M": 1.0, "ops": [{"re": _SQUARE, "im": _SQUARE}],
                       **fields})


@pytest.mark.parametrize(
    "name, content",
    [
        ("no_im.json", json.dumps({"n": 1, "dim": 2, "M": 1.0, "ops": [{"re": _SQUARE}]})),
        (
            "null_n.json",
            json.dumps({"n": None, "dim": 2, "M": 1.0, "ops": [{"re": _SQUARE, "im": _SQUARE}]}),
        ),
        ("scalar.json", "7"),
        ("huge_n.json", '{"n": 1e400, "dim": 2, "M": 1.0, "ops": []}'),
        (
            "fractional_dim.json",
            json.dumps({"n": 1, "dim": 2.5, "M": 1.0, "ops": [{"re": _SQUARE, "im": _SQUARE}]}),
        ),
        ("huge_int_m.json", '{"n": 0, "dim": 2, "M": 1' + "0" * 400 + ', "ops": []}'),
        ("latin1.json", b'{"n": 1, "meta": {"name": "\xe9t\xe9"}}'),
        (
            "infinite_m.json",
            json.dumps({"n": 1, "dim": 2, "M": math.inf, "ops": [{"re": _SQUARE, "im": _SQUARE}]}),
        ),
        ("re_im_shapes.json", json.dumps(
            {"n": 1, "dim": 2, "M": 1.0, "ops": [{"re": _SQUARE, "im": [[0.0, 0.0]]}]})),
        ("bool_n.json", json.dumps({"n": True, "dim": 2, "M": 1.0,
                                    "ops": [{"re": _SQUARE, "im": _SQUARE}]})),
        ("bool_dim.json", json.dumps({"n": 1, "dim": True, "M": 1.0,
                                      "ops": [{"re": [[0.0]], "im": [[0.0]]}]})),
        ("bool_m.json", json.dumps({"n": 1, "dim": 2, "M": True,
                                    "ops": [{"re": _SQUARE, "im": _SQUARE}]})),
        ("vector_n.json", _tuple_text(n=[1, 2])),
        ("string_m.json", _tuple_text(M="1.0")),
        ("scalar_ops.json", _tuple_text(ops=0)),
        ("huge_entry.json", _tuple_text().replace("[[0.0, 0.0]", "[[1" + "0" * 400 + ", 0.0]", 1)),
        ("string_entry.json", _tuple_text(ops=[{"re": [["0", "1"], ["1", "0"]], "im": _SQUARE}])),
        ("true_entry.json", _tuple_text(ops=[{"re": [[0.0, True], [True, 0.0]], "im": _SQUARE}])),
        ("list_meta.json", _tuple_text(meta=[1, 2])),
        ("empty_list_meta.json", _tuple_text(meta=[])),
        ("zero_meta.json", _tuple_text(meta=0)),
        ("empty_string_meta.json", _tuple_text(meta="")),
        ("null_meta.json", _tuple_text(meta=None)),
        # Non-finite constants: json reads them, strict JSON has none.
        ("constant_in_meta_value.json", _tuple_text(meta={"note": math.nan, "x": math.inf})),
        ("constant_in_re.json", _tuple_text(ops=[{"re": [[0.0, -math.inf], [-math.inf, 0.0]],
                                                  "im": _SQUARE}])),
        # Archives in the former npz layout: they are not JSON, and are refused.
        ("old_no_ops.npz", {key: _NPZ[key] for key in ("n", "dim", "M")}),
        ("old_bool_n.npz", {**_NPZ, "n": np.array(True)}),
        ("old_bool_dim.npz", {**_NPZ, "dim": np.array(True), "ops": np.zeros((1, 1, 1))}),
        ("old_bool_m.npz", {**_NPZ, "M": np.array(True)}),
    ],
    ids=["op-without-im", "null-n", "top-level-scalar", "n-overflows-int", "fractional-dim",
         "m-overflows-float", "not-utf8", "infinite-m", "re-im-shapes-differ", "bool-n",
         "bool-dim", "bool-m", "vector-n", "string-m", "ops-not-a-list", "entry-overflows-float",
         "string-entries", "bool-entries", "meta-not-object", "meta-empty-list", "meta-zero",
         "meta-empty-string", "meta-null", "meta-nan", "re-minus-infinity", "npz-without-ops", "npz-bool-n", "npz-bool-dim",
         "npz-bool-m"],
)
def test_load_rejects_malformed_files(tmp_path, name, content):
    path = tmp_path / name
    if isinstance(content, dict):
        np.savez(path, **content)
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    with pytest.raises(TupleFormatError) as info:
        load_tuple(path)
    assert str(path) in str(info.value)
    if name.endswith("_meta.json"):
        assert "meta must be an object" in str(info.value)
    if name.startswith("bool_"):
        assert "not booleans" in str(info.value)
    if name.endswith("_entry.json"):
        assert "operator 0" in str(info.value)
    if name.startswith("constant_"):
        assert str(info.value).endswith(("NaN is not a JSON number",
                                         "-Infinity is not a JSON number"))


_EDGE_FLOATS = [-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]
_FLOATS = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _FLOATS,
    _FLOATS.map(np.float64),
    st.text(),
    st.sampled_from(["\u00e9t\u00e9", "tab\there", 'quote " and \\', "\u2603\n"]),
)
_KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(_FLOATS),  # float lists, finite or mixed with NaN and infinities
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(st.text(), inner),
        st.dictionaries(_KEYS, inner),
    ),
    max_leaves=30,
)


@given(obj=_JSON_VALUES)
@example(obj={"empty": [], "none": {}, "nested": [[], {}, ()]})
@example(obj=[0.5] * 1500 + [math.nan] + [-0.0] * 600)
@example(obj={"rows": [[1.0, 2.0], (3.0, np.float64(4.5))], 7: {"k": [True, None]}})
def test_write_json_matches_stdlib_indent2(tmp_path_factory, obj):
    path = tmp_path_factory.getbasetemp() / "write_json.json"
    write_json(obj, path)
    assert path.read_bytes() == (json.dumps(obj, indent=2) + "\n").encode("ascii")


@pytest.mark.parametrize("obj", [{"a": [np.int64(1)]}, {"a": object()}, [1.0, {(1, 2): 0}]])
def test_write_json_rejects_what_json_rejects(tmp_path, obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        write_json(obj, tmp_path / "out.json")


def test_write_json_streams(tmp_path):
    # A flat float list and a matrix, about 5 MB of text in all; the whole
    # string in memory at once would be several times the bound below.
    payload = {
        "flat": [math.pi * i for i in range(100_000)],
        "rows": [[math.e * (i + j) for j in range(256)] for i in range(600)],
    }
    path = tmp_path / "big.json"
    tracemalloc.start()
    try:
        write_json(payload, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size >= 4_000_000
    assert peak < 1_000_000


def _traced_peak(write) -> int:
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _grid_result(count: int) -> SyntheticSpectrumResult:
    # ``count`` points of an n = 3 grid, with norms of full-length reprs.
    grid = GridSpec(3, 1.0, 16, 16)
    points = itertools.islice(itertools.product(range(-16, 17), repeat=3), count)
    norms = [0.5 + math.pi * i % 0.5 for i in range(count)]
    return SyntheticSpectrumResult(0.5, grid, np.array(list(points)), np.array(norms))


def test_writing_a_lazy_spectrum_result_takes_memory_independent_of_its_size(tmp_path):
    # Eight times the entries may not cost more memory: a chunk at a time.
    peaks = []
    for count in (3_000, 24_000):
        result = _grid_result(count)
        path = tmp_path / f"spec{count}.json"
        peaks.append(_traced_peak(lambda: write_json(result.to_json_dict(), path)))
        assert path.read_bytes() == (json.dumps(result.to_json_dict(), indent=2, default=list)
                                     + "\n").encode("ascii")
    assert abs(peaks[1] - peaks[0]) < 50_000
    assert max(peaks) < 500_000


_GRID3 = GridSpec(3, 1.0, 4, 4)
_INDEX3 = st.tuples(*[st.integers(-_GRID3.half, _GRID3.half)] * 3)


@st.composite
def _points_and_norms(draw):
    """Grid indices of up to 40 points of ``_GRID3``, and their norms or None."""
    points = draw(st.lists(_INDEX3, max_size=40))
    norms = draw(st.one_of(st.none(),
                           st.lists(_FLOATS, min_size=len(points), max_size=len(points))))
    return points, norms


@given(drawn=_points_and_norms())
@example(drawn=([(1, 0, -4)] * 600, [0.5 + i / 7 for i in range(600)]))
@example(drawn=([(1, i % 9 - 4, -4) for i in range(600)], None))
@example(drawn=([(2, 2, 2)] * 4, [math.nan, math.inf, -math.inf, -0.0]))
def test_lazy_spectrum_result_writes_the_bytes_of_its_json_dict(tmp_path_factory, drawn):
    points, norms = drawn
    result = SyntheticSpectrumResult(0.5, _GRID3, np.array(points, dtype=np.int32).reshape(-1, 3),
                                     norms)
    path = tmp_path_factory.getbasetemp() / "lazy_spectrum.json"
    data = result.to_json_dict()
    write_json(data, path)
    plain = dict(data, accepted=list(data["accepted"]))
    # The value of grid index m is m/k, k = 4; the texts tell NaN and -0.0 apart.
    expected = [{"point": [m / 4 for m in p], "norm": None if norms is None else norms[i]}
                for i, p in enumerate(points)]
    assert json.dumps(plain["accepted"]) == json.dumps(expected)
    assert path.read_bytes() == (json.dumps(plain, indent=2) + "\n").encode("ascii")


def test_lazy_spectrum_result_without_norms_is_written_from_its_template(tmp_path):
    points = np.array(list(itertools.product(range(-4, 5), repeat=3)))
    result = SyntheticSpectrumResult(0.5, _GRID3, points, None)
    data = result.to_json_dict()
    rows, made = data["accepted"], []
    data["accepted"] = JsonRows(rows.records, lambda r: made.append(r) or rows.entry(r), rows.texts)
    path = tmp_path / "spectrum.json"
    write_json(data, path)
    plain = json.dumps(result.to_json_dict(), indent=2, default=list)
    assert path.read_bytes() == (plain + "\n").encode("ascii")
    # The 729 entries fill three chunks; only the first entry, read for the
    # template, is made, so no chunk is written value by value.
    assert len(result.accepted) > 2 * 256 and made == [0]


def test_json_rows_are_a_read_only_sequence_made_on_read(tmp_path):
    made = []

    def entry(record):
        made.append(record)
        return {"id": record, "twice": [record, 2 * record]}

    rows = JsonRows(range(10), entry)
    part = rows[2:5]
    assert isinstance(part, JsonRows) and not made
    assert len(part) == 3 and part[1] == {"id": 3, "twice": [3, 6]}
    assert list(rows) == [entry(r) for r in range(10)]
    # Text that does not fit the layout, or a refusal, leaves the chunk to
    # be written value by value.
    for texts in (lambda records: [("1",)] * len(records),
                  lambda records: {}[0]):
        path = tmp_path / "rows.json"
        write_json({"rows": JsonRows(range(3000), entry, texts)}, path)
        expected = {"rows": [entry(r) for r in range(3000)]}
        assert path.read_bytes() == (json.dumps(expected, indent=2) + "\n").encode("ascii")


def test_tuple_file_bytes_match_per_element_layout(tmp_path):
    tup = generate(ModelSpec("shift_pair", 8))
    meta = {"family": "shift_pair", "seed": 0}
    path = tmp_path / "shift8.json"
    save_tuple(tup, path, meta=meta)
    layout = {
        "n": tup.n,
        "dim": tup.dim,
        "M": tup.bound,
        "ops": [
            {
                "re": [[float(z.real) for z in row] for row in op.array],
                "im": [[float(z.imag) for z in row] for row in op.array],
            }
            for op in tup.ops
        ],
        "meta": meta,
    }
    assert path.read_bytes() == (json.dumps(layout, indent=2) + "\n").encode("ascii")
