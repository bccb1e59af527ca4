"""Model families, deterministic pseudo-randomness, and JSON tuple files and artifacts.

Randomized families draw from a counter-based SplitMix64 stream rather
than the platform generator so that the same seed yields bit-identical
matrices on every platform and in every language that implements the
same three-constant mixer:

    z   = seed + (i + 1) * 0x9E3779B97F4A7C15        (mod 2^64)
    z  ^= z >> 30;  z *= 0xBF58476D1CE4E5B9          (mod 2^64)
    z  ^= z >> 27;  z *= 0x94D049BB133111EB          (mod 2^64)
    out = z ^ (z >> 31)

Doubles take the top 53 bits: (out >> 11) * 2^-53 in [0, 1).

Tuple files are JSON with shape {n, dim, M, ops: [{re: [[...]], im:
[[...]]}], meta?: {...}}; floats round-trip exactly through their
shortest decimal representation. ``save_tuple`` writes them and
``load_tuple`` reads and validates them: n and dim are integers and M is a
number, none of them a boolean; there are n finite Hermitian dim x dim
operators, each given as lists of rows of numbers, within M, which is
positive and finite; and meta, when present, is an object. Any violation
is a ``TupleFormatError``.

Every JSON file, tuple files and CLI artifacts alike, goes through
``write_json``. Its bytes are ``json.dumps(obj, indent=2) + "\n"``, the
standard library's layout, but it streams: each dict and list is written
piece by piece, and a list of finite floats is formatted in one
``str.join`` over ``float.__repr__``, the function ``json`` itself uses for
floats. Everything else is encoded by ``json``. A large list of results
need not exist as JSON data at all: a ``JsonRows`` makes each entry from
its record only when the writer reads it, a chunk at a time.
"""
from __future__ import annotations

import json
import math
import numbers
import operator
import os
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Mapping, NamedTuple

import numpy as np

from .errors import TupleFormatError
from .linalg import HermitianMatrix, operator_norm
from .observables import OperatorTuple

__all__ = [
    "ModelSpec",
    "FAMILIES",
    "family_name",
    "splitmix64",
    "uniform_doubles",
    "generate",
    "save_tuple",
    "load_tuple",
    "JsonRows",
    "write_accepted_csv",
    "write_json",
]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF


def splitmix64(seed: int, count: int) -> np.ndarray:
    """``count`` SplitMix64 outputs for ``seed``, as uint64, vectorized."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(int(seed) & _MASK) + idx * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_2
    return z ^ (z >> np.uint64(31))


def uniform_doubles(seed: int, count: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
    """Deterministic uniform doubles in [low, high) from the SplitMix64 stream."""
    bits = splitmix64(seed, count) >> np.uint64(11)
    unit = bits.astype(np.float64) * (2.0 ** -53)
    return low + unit * (high - low)


@dataclass(frozen=True)
class ModelSpec:
    """Which family to build, at which size, from which seed."""

    family: str
    dim: int
    n: int = 2
    seed: int = 0
    params: Mapping[str, object] = field(default_factory=dict)


def _shift_matrix(dim: int) -> np.ndarray:
    s = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(dim - 1):
        s[j + 1, j] = 1.0
    return s


def _shift_pair(dim: int) -> OperatorTuple:
    s = _shift_matrix(dim)
    a1 = (s + s.conj().T) / 2.0
    a2 = -(s - s.conj().T) / 2.0j
    return OperatorTuple([a1, a2], bound=1.0)


def _commuting_diag(spec: ModelSpec, eigen_low: float, eigen_high: float) -> OperatorTuple:
    if not (eigen_low < eigen_high):
        raise ValueError("eigen_low must be below eigen_high")
    draws = uniform_doubles(spec.seed, spec.n * spec.dim, eigen_low, eigen_high)
    ops = []
    for j in range(spec.n):
        diag = draws[j * spec.dim : (j + 1) * spec.dim]
        ops.append(np.diag(diag.astype(np.complex128)))
    bound = max(1.0, float(np.max(np.abs(draws))))
    return OperatorTuple(ops, bound=bound)


def _random_hermitian(seed: int, dim: int) -> np.ndarray:
    re = uniform_doubles(seed, dim * dim, -1.0, 1.0).reshape(dim, dim)
    im = uniform_doubles(seed ^ 0x5DEECE66D, dim * dim, -1.0, 1.0).reshape(dim, dim)
    r = re + 1j * im
    return (r + r.conj().T) / 2.0


def _perturbed_commuting(spec: ModelSpec, perturbation: float, eigen_low: float,
                         eigen_high: float) -> OperatorTuple:
    if perturbation < 0:
        raise ValueError("perturbation size must be nonnegative")
    base = _commuting_diag(spec, eigen_low, eigen_high)
    ops = []
    for j, arr in enumerate(base.arrays()):
        e = _random_hermitian(spec.seed + 1000003 * (j + 1), spec.dim)
        nrm = operator_norm(e)
        if nrm > 0 and perturbation > 0:
            arr = arr + e * (perturbation / nrm)
        ops.append(arr)
    bound = max(1.0, max(operator_norm(op) for op in ops))
    return OperatorTuple(ops, bound=bound)


def _clock_shift_triple(dim: int) -> OperatorTuple:
    angles = 2.0 * np.pi * np.arange(dim) / dim
    t1 = np.diag(np.cos(angles).astype(np.complex128))
    t2 = np.diag(np.sin(angles).astype(np.complex128))
    v = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(dim):
        v[(j + 1) % dim, j] = 1.0
    t3 = (v + v.conj().T) / 2.0
    return OperatorTuple([t1, t2, t3], bound=1.0)


class _Family(NamedTuple):
    short: str  # the CLI name
    n: int | None  # the fixed n, or None for any n >= 1
    seeded: bool  # whether it draws from ModelSpec.seed
    params: dict[str, float]  # the parameters it reads, with their defaults


FAMILIES = {
    "shift_pair": _Family("shift", 2, False, {}),
    "commuting_diag": _Family("diag", None, True, {"eigen_low": -1.0, "eigen_high": 1.0}),
    "perturbed_commuting": _Family("perturbed", None, True, {
        "perturbation": 0.01, "eigen_low": -0.95, "eigen_high": 0.95}),
    "clock_shift_triple": _Family("clock", 3, False, {}),
}


def family_name(name: str) -> str:
    """The full family name for a full or short ``name``."""
    for full, family in FAMILIES.items():
        if name in (full, family.short):
            return full
    raise ValueError(
        f"unknown family {name!r}; available: "
        + ", ".join(f"{full} ({family.short})" for full, family in FAMILIES.items())
    )


def _family_params(family: str, given: Mapping[str, object]) -> dict[str, float]:
    """The full parameter set of ``family``: its defaults, updated from ``given``.

    A given value goes through ``float``, so a string such as a
    command-line value parses as a number. A key the family does not read,
    or a value that does not parse or is not finite, is a ValueError naming
    the key.
    """
    params = dict(FAMILIES[family].params)
    for key in sorted(given):
        if key not in params:
            raise ValueError(f"{family} reads no parameter {key!r}; its parameters: "
                             + (", ".join(params) or "none"))
        try:
            value = float(given[key])
        except (TypeError, ValueError):
            value = math.nan  # refused below, as a non-finite number is
        if not math.isfinite(value):
            raise ValueError(f"{family} parameter {key!r} must be a finite number, "
                             f"got {given[key]!r}")
        params[key] = value
    return params


def generate(spec: ModelSpec) -> OperatorTuple:
    """Build the observable tuple described by ``spec``.

    Deterministic: equal specs produce bit-identical matrices. The family
    reads its parameters through ``_family_params``, so a misspelt key
    cannot fall back to a default unnoticed. The seed is an integer in
    [0, 2^64), not a boolean: SplitMix64 reads it modulo 2^64, so any other
    value would draw the matrices of another seed.
    """
    family = family_name(spec.family)
    params = _family_params(family, spec.params)
    seed = spec.seed
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or not 0 <= seed <= _MASK:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    if spec.dim < 2:
        raise ValueError("dim must be at least 2")
    fixed_n = FAMILIES[family].n
    if fixed_n is not None and spec.n != fixed_n:
        raise ValueError(f"{family} has n={fixed_n}; pass n={fixed_n}")
    if spec.n < 1:
        raise ValueError("n must be at least 1")
    if family == "shift_pair":
        return _shift_pair(spec.dim)
    if family == "clock_shift_triple":
        return _clock_shift_triple(spec.dim)
    if family == "commuting_diag":
        return _commuting_diag(spec, **params)
    return _perturbed_commuting(spec, **params)


def save_tuple(tup: OperatorTuple, path, meta: dict | None = None) -> None:
    """Write ``tup`` to ``path`` as a JSON tuple file, with ``meta`` if it is not empty.

    The matrices round-trip exactly, through the shortest decimal
    representation of each float, so a file written here, loaded and saved
    again with its meta, keeps its bytes.
    """
    payload = {
        "n": tup.n,
        "dim": tup.dim,
        "M": tup.bound,
        "ops": [{"re": op.array.real.tolist(), "im": op.array.imag.tolist()}
                for op in tup.ops],
    }
    if meta:
        payload["meta"] = meta
    write_json(payload, path)


# The types of the numbers json decodes; bool is its own type, not int.
_NUMBERS = {int, float}


def _real_matrix(rows) -> np.ndarray:
    """A JSON list of rows of numbers as a float array; anything else is a ValueError.

    An integer beyond the float range is an OverflowError.
    """
    if not (isinstance(rows, list)
            and all(isinstance(row, list) and set(map(type, row)) <= _NUMBERS for row in rows)):
        raise ValueError("re and im must be lists of rows of numbers")
    return np.array(rows, dtype=float)


def _json_fields(path: str) -> tuple:
    """Decode a UTF-8 JSON tuple file into n, dim, M, ops and meta, left unchecked.

    Each operator's ``re`` and ``im`` become one complex array here. The
    decoded document, which holds every entry as a Python float, several
    times the memory of the arrays, is freed on return, before
    ``load_tuple`` checks the operators.
    """
    with open(path, "rb") as fh:
        try:
            d = json.loads(fh.read().decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise TupleFormatError(f"{path}: not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise TupleFormatError(
                f"{path}: parse error at byte offset {exc.pos}: {exc.msg}"
            ) from exc
    if not isinstance(d, dict):
        raise TupleFormatError(f"{path}: top level must be an object")
    for key in ("n", "dim", "M", "ops"):
        if key not in d:
            raise TupleFormatError(f"{path}: missing key {key!r}")
    if not isinstance(d["ops"], list):
        raise TupleFormatError(f"{path}: ops must be a list")
    ops = []
    for j, entry in enumerate(d["ops"]):
        if not isinstance(entry, dict) or "re" not in entry or "im" not in entry:
            raise TupleFormatError(f"{path}: operator {j} needs 're' and 'im' arrays")
        try:
            re, im = _real_matrix(entry["re"]), _real_matrix(entry["im"])
            if re.shape != im.shape:  # adding would broadcast them
                raise ValueError(f"re has shape {re.shape} but im has {im.shape}")
        except (ValueError, OverflowError) as exc:
            raise TupleFormatError(f"{path}: operator {j}: {exc}") from exc
        ops.append(re + 1j * im)
    return d["n"], d["dim"], d["M"], ops, d.get("meta", {})


def load_tuple(path) -> tuple[OperatorTuple, dict]:
    """Read a JSON tuple file; returns the tuple and its metadata mapping.

    The fields ``_json_fields`` decodes are validated here: see the module
    docstring for the rules. Every failure is a ``TupleFormatError`` naming
    the path. A missing meta block yields an empty mapping.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        raise TupleFormatError(f"{path}: no such file")
    n, dim, bound, ops, meta = _json_fields(path)
    # operator.index and float accept booleans, and float parses strings.
    if any(isinstance(v, bool) for v in (n, dim, bound)):
        raise TupleFormatError(f"{path}: n, dim and M must be numbers, not booleans")
    try:
        if type(bound) not in _NUMBERS:
            raise TypeError(f"M is a {type(bound).__name__}")
        n, dim, bound = operator.index(n), operator.index(dim), float(bound)
    except (TypeError, OverflowError) as exc:
        raise TupleFormatError(f"{path}: n and dim must be integers, M a number: {exc}") from exc
    if len(ops) != n:
        raise TupleFormatError(f"{path}: declared n={n} but found {len(ops)} operators")
    matrices = []
    for j, op in enumerate(ops):
        try:
            if op.shape != (dim, dim):
                raise ValueError(f"shape {op.shape}, expected ({dim}, {dim})")
            matrices.append(HermitianMatrix(op))
        except ValueError as exc:
            raise TupleFormatError(f"{path}: operator {j}: {exc}") from exc
    if not isinstance(meta, dict):
        raise TupleFormatError(f"{path}: meta must be an object")
    try:
        return OperatorTuple(matrices, bound=bound), meta
    except ValueError as exc:
        raise TupleFormatError(f"{path}: {exc}") from exc


class JsonRows(Sequence):
    """A read-only JSON list whose entry i, ``entry(records[i])``, is made only when read.

    Iterating or indexing it makes entries; a slice is a ``JsonRows`` over
    the sliced records, so nothing is made until an entry is read.
    ``write_json`` reads it a chunk at a time, a chunk holding about
    ``_CHUNK`` JSON values as counted in the first entry, so its memory does
    not grow with the number of records.

    When ``texts`` is given, every entry must have the layout of the first:
    dicts with the same str keys in the same order, and lists of the same
    lengths. ``texts(records)`` then yields, for each of a slice of the
    records, a tuple with the JSON text of each scalar of its entry, in the
    order ``write_json`` writes them. The writer formats a whole chunk from
    those tuples and one template of the layout, instead of value by value.
    It writes a chunk value by value wherever ``texts`` raises TypeError or
    LookupError, or yields a tuple that does not fit the template.
    """

    def __init__(self, records: Sequence, entry: Callable,
                 texts: Callable[[Sequence], Iterable[tuple[str, ...]]] | None = None):
        self.records, self.entry, self.texts = records, entry, texts

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return JsonRows(self.records[index], self.entry, self.texts)
        return self.entry(self.records[index])

    def __iter__(self):
        return map(self.entry, self.records)


def write_json(obj, path) -> None:
    """Write ``obj`` as ``json.dumps(obj, indent=2) + "\n"``, streamed.

    Tuple files and every CLI artifact go through here, so they share one
    layout: the standard library's ``indent=2`` form, floats in their
    shortest round-trip form, no timestamps. The file is written piece by
    piece. A list, tuple or other read-only ``Sequence`` (not a string) is
    written as a JSON list a slice at a time; a ``JsonRows`` makes its
    entries only as they are written, so a result whose large lists are
    ``JsonRows`` is written in the memory of one chunk, however large the
    output. Slices of finite floats are formatted with ``float.__repr__``
    in one join; keys and strings go through ``json``'s own string encoder,
    and every other value (ints, bools, None, NaN and ±Infinity, dicts with
    non-str keys) through ``json`` itself, so a value of a type ``json``
    cannot encode raises its ``TypeError``. Sequences other than lists and
    tuples, which ``json`` rejects, are the one exception.
    """
    with open(path, "w", encoding="utf-8") as fh:
        _write_value(fh.write, obj, "\n")
        fh.write("\n")


# json.dumps(obj, indent=2) is this encoder's encode(obj); it is stateless.
_JSON = json.JSONEncoder(indent=2)
_INDENT = "  "
# JSON values per chunk of a list: bounds the string, and the entries of a
# ``JsonRows``, that one list holds at a time.
_CHUNK = 1024
# A scalar's place in a ``JsonRows`` template. It is written as a NUL, which
# JSON text never holds: json escapes it in strings and keys.
_SLOT = object()


def _write_value(write, obj, newline: str) -> None:
    """Write ``obj`` at the depth whose line break plus indent is ``newline``."""
    # A finite float's repr has no letter n, while "nan" and "inf" do; json
    # spells those NaN and Infinity, so any text with an n is left to json.
    if isinstance(obj, float) and "n" not in (text := float.__repr__(obj)):
        write(text)
    elif isinstance(obj, (list, tuple)):
        _write_list(write, obj, newline)
    elif isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        if not obj:
            write("{}")
            return
        inner = newline + _INDENT
        sep = "{" + inner
        for key, value in obj.items():
            write(sep + encode_basestring_ascii(key) + ": ")
            _write_value(write, value, inner)
            sep = "," + inner
        write(newline + "}")
    elif isinstance(obj, Sequence) and not isinstance(obj, (str, bytes, bytearray, memoryview)):
        _write_list(write, obj, newline)
    elif obj is _SLOT:
        write("\0")
    else:
        # Scalars hold no line break; a dict with non-str keys is re-indented.
        write(_JSON.encode(obj).replace("\n", newline))


def _write_list(write, items, newline: str) -> None:
    if not items:
        write("[]")
        return
    inner = newline + _INDENT
    join = ("," + inner).join
    sep = "[" + inner
    rows = isinstance(items, JsonRows)
    step = _CHUNK
    if rows:
        template, slots = _template(items[0], inner)
        step = max(1, _CHUNK // max(1, slots))
    for lo in range(0, len(items), step):
        chunk = items[lo:lo + step]
        body = None
        try:
            if not rows:
                body = join(map(float.__repr__, chunk))
                if "n" in body:
                    body = None
            elif chunk.texts is not None:
                body = join(map(template.__mod__, chunk.texts(chunk.records)))
        except (TypeError, LookupError):  # an item that is not a float, or texts declined
            body = None
        if body is None:
            for item in chunk:
                write(sep)
                _write_value(write, item, inner)
                sep = "," + inner
        else:
            write(sep + body)
            sep = "," + inner
    write(newline + "]")


def _template(entry, newline: str) -> tuple[str, int]:
    """The %-format of ``entry``'s layout at ``newline``, with one %s per scalar, and their count."""
    def skeleton(value):
        if isinstance(value, dict) and all(isinstance(key, str) for key in value):
            return {key: skeleton(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [skeleton(item) for item in value]
        return _SLOT

    pieces: list[str] = []
    _write_value(pieces.append, skeleton(entry), newline)
    text = "".join(pieces)
    return text.replace("%", "%%").replace("\0", "%s"), text.count("\0")


def write_accepted_csv(result, path: str) -> None:
    """Accepted spectrum points as CSV: coord_1..coord_n, theta_norm.

    Each row holds the reprs of a point's coordinates and norm, as its JSON
    entry does. Rows are formatted and written ``_CHUNK`` at a time, so
    memory does not grow with the number of points. A result without norms
    raises ValueError before the file is opened.
    """
    if result.norms is None:
        raise ValueError("a CSV needs the norm of every accepted point; "
                         "a scan(..., norms=False) result has none")
    header = ",".join(f"coord_{j + 1}" for j in range(result.grid.n)) + ",theta_norm"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(result.accepted), _CHUNK):
            fh.write("".join(",".join(row) + "\n" for row in result._texts(lo, lo + _CHUNK)))
