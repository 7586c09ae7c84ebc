"""The layout vocabulary: packed little-endian records at fixed offsets.

Every record on file is declared once with `define_record` and read and
written through its RecordLayout: the pool and block headers (pool.py),
the undo-record header (txn.py), kernel roots and entries, leds records.
Field codes: u8/u16/u32/u64, i32/i64, f32/f64, oid (a 16-byte ObjectId
slot), bytesN (N raw bytes). Offsets follow declaration order unless a
spec gives one.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from typing import NamedTuple

from .errors import NoSuchField, OverlappingFields

_OID = struct.Struct("<QQ")


class ObjectId(NamedTuple):
    """Persistent reference: pool identity token + absolute payload offset."""

    pool_uuid: int
    offset: int

    def pack(self) -> bytes:
        return _OID.pack(self.pool_uuid, self.offset)

    @classmethod
    def unpack(cls, data: bytes, off: int = 0) -> "ObjectId":
        return cls(*_OID.unpack_from(data, off))

    def is_null(self) -> bool:
        return self.pool_uuid == 0 and self.offset == 0


NULL_OID = ObjectId(0, 0)

_CODES = {  # code: (size, kind, encoding, struct format)
    "u8": (1, "scalar", "uint", "B"),
    "u16": (2, "scalar", "uint", "H"),
    "u32": (4, "scalar", "uint", "I"),
    "u64": (8, "scalar", "uint", "Q"),
    "i32": (4, "scalar", "sint", "i"),
    "i64": (8, "scalar", "sint", "q"),
    "f32": (4, "scalar", "float", "f"),
    "f64": (8, "scalar", "float", "d"),
    "oid": (16, "objectid", "raw", "16s"),
}
_BYTES_RE = re.compile(r"^bytes(\d+)$")
_VALUE_RE = re.compile(r"\d*s|[a-zA-Z]")  # one decoded value's struct code


@dataclass(frozen=True)
class FieldLayout:
    name: str
    offset: int
    code: str       # as declared: u8 .. f64, oid or bytesN
    size: int
    kind: str       # scalar | objectid | bytes
    encoding: str   # uint | sint | float | raw
    fmt: str        # the struct format code, without a byte-order prefix

    def decode(self, raw: bytes):
        if self.kind == "objectid":
            return ObjectId.unpack(raw)
        if self.kind == "bytes":
            return raw
        return struct.unpack("<" + self.fmt, raw)[0]

    def encode(self, value) -> bytes:
        if self.kind == "objectid":
            return value.pack()
        if self.kind == "bytes":
            if len(value) != self.size:
                raise NoSuchField(f"{self.name}: expected {self.size} bytes")
            return bytes(value)
        return struct.pack("<" + self.fmt, float(value) if self.encoding == "float" else value)


def _parse_code(code: str) -> tuple[int, str, str, str]:
    if code in _CODES:
        return _CODES[code]
    m = _BYTES_RE.match(code)
    if m:
        return int(m.group(1)), "bytes", "raw", f"{m.group(1)}s"
    raise NoSuchField(f"unknown field code {code!r}")


def packed_struct(parts) -> struct.Struct:
    """One little-endian struct over (offset, format codes) parts, given in
    ascending offset order; the bytes between parts are skipped."""
    fmt, cursor = "<", 0
    for off, codes in parts:
        if off > cursor:
            fmt += f"{off - cursor}x"
        fmt += codes
        cursor = off + struct.calcsize("<" + codes)
    return struct.Struct(fmt)


class RecordLayout:
    """Packed fields at fixed offsets, encoded and decoded by one struct.

    Built from (offset, format codes) parts in ascending offset order, the
    bytes between them skipped; `fields` names them when the parts come
    from `define_record` (one part per field) or are derived from its
    fields (an oid part "QQ" decodes as two u64 words). `size` is the
    packed extent (the end of the last part). `pack` and `unpack_from` take
    and give the values in offset order, scalars as numbers and `Ns` parts
    as raw bytes; values after those given to `pack` are zero-filled.
    `unpack_from` is the struct's own method. `put(tx, oid, values, bits)`
    stores the values whose bits are set, one tx.write per adjacent run.
    """

    __slots__ = ("fields", "size", "offsets", "codec", "unpack_from", "_named", "_codes",
                 "_zeros", "_runs")

    def __init__(self, parts, fields: tuple[FieldLayout, ...] = ()):
        parts = list(parts)
        self.fields = fields
        self.offsets = {f.name: f.offset for f in fields}
        self._named = {f.name: f for f in fields}
        self.codec = packed_struct(parts)
        self.size = self.codec.size
        self.unpack_from = self.codec.unpack_from
        starts, self._codes = [], []
        for off, fmt in parts:
            for code in _VALUE_RE.findall(fmt):
                starts.append(off)
                self._codes.append(code)
                off += struct.calcsize("<" + code)
        self._zeros = tuple(b"" if code.endswith("s") else 0 for code in self._codes)
        self._runs = _Runs(starts, self._codes)

    def field(self, name: str) -> FieldLayout:
        f = self._named.get(name)
        if f is None:
            raise NoSuchField(f"record has no field {name!r}")
        return f

    def pack(self, *values) -> bytes:
        return self.codec.pack(*values, *self._zeros[len(values):])

    def put(self, tx, oid, values, bits: int) -> None:
        for off, run, a, b in self._runs[bits]:
            tx.write(oid, off, run.pack(*values[a:b]))


class _Runs(dict):
    """One layout's `put` plans: bits -> (offset, struct, a, b) for each run
    a..b-1 of adjacent set bits, ascending; each planned on first use."""

    def __init__(self, starts: list[int], codes: list[str]):
        self.starts, self.codes = starts, codes

    def __missing__(self, bits: int) -> tuple:
        plan, rest, starts, codes = [], bits, self.starts, self.codes
        while rest:
            low = rest & -rest  # a run's first bit; adding it carries past the run
            a, b = low.bit_length() - 1, (rest + low & ~rest).bit_length() - 1
            run = struct.Struct("<" + "".join(codes[a:b]))
            if starts[a] + run.size != starts[b - 1] + struct.calcsize("<" + codes[b - 1]):
                raise ValueError(f"values {a}..{b - 1} are not contiguous")
            plan.append((starts[a], run, a, b))
            rest &= rest + low
        self[bits] = plan = tuple(plan)
        return plan


def define_record(specs) -> RecordLayout:
    """Lay out (name, code[, offset]) specs as a packed record."""
    fields: list[FieldLayout] = []
    names: set[str] = set()
    cursor = 0
    for spec in specs:
        name, code = spec[0], spec[1]
        off = spec[2] if len(spec) > 2 else cursor
        f = FieldLayout(name, off, code, *_parse_code(code))
        fields.append(f)
        cursor = max(cursor, off + f.size)
    for f in fields:
        if f.name in names:
            raise OverlappingFields(f"duplicate field {f.name!r}")
        names.add(f.name)
    spans = sorted((f.offset, f.offset + f.size, f.name) for f in fields)
    for (a0, a1, an), (b0, b1, bn) in zip(spans, spans[1:]):
        if b0 < a1:
            raise OverlappingFields(f"fields {an!r} and {bn!r} overlap")
    ordered = sorted(fields, key=lambda f: f.offset)
    return RecordLayout([(f.offset, f.fmt) for f in ordered], tuple(fields))
