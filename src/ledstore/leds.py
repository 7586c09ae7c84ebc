"""Extendible record schemas with lazily materialized extension records.

A TypeDescriptor describes a record whose layout may grow across program
versions without rewriting stored objects. The base record ends with a
16-byte link slot; each registered extension is a separately allocated
record {payload fields + trailing link}, chained off that slot. A null
link means "not yet upgraded". On first access of an extension field the
runtime allocates the record in the same pool, runs the extension's init
rule against the object's existing fields, stores the record and its null
link with one store, then its id in the predecessor's link slot. Outside a
transaction, reads walk the chain in an implicit one, which stores nothing
if the chain is there. Extensions are append-only: removing or reordering
levels would misinterpret data written by older versions, which is exactly
what the base-layout fingerprint guards against.

Fields are declared in the codes of layout.py and laid out by its
define_record, which also serves plain (non-extendible) records; base
records are padded to a 16-byte multiple with the link slot occupying the
final 16 bytes, while extension records are exactly payload + 16.

Init rules are declarative where possible so schema manifests stay JSON:

    {"op": "zero"}
    {"op": "copy_fields", "map": {"key64": "key"}}   # widening int copy,
                                                     # int->float converts

A callable taking a field view and returning payload bytes is accepted for
anything fancier, at the cost of not being serializable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .errors import (
    NonContiguousLevel,
    NoSuchField,
    OverlappingFields,
    TxRequired,
    UnknownLevel,
)
from .layout import NULL_OID, FieldLayout, ObjectId, _code_of, define_record
from .pool import PoolHandle, _round16
from .txn import Transaction

LINK_SIZE = 16


@dataclass(frozen=True)
class ExtensionDescriptor:
    level: int
    payload_fields: tuple[FieldLayout, ...]
    payload_size: int
    init_rule: object
    link_offset: int        # == payload_size; the trailing link slot

    @property
    def record_size(self) -> int:
        return self.payload_size + LINK_SIZE


@dataclass(frozen=True)
class TypeDescriptor:
    type_name: str
    base_fields: tuple[FieldLayout, ...]
    base_size: int          # padded to 16, trailing link included
    link_offset: int        # base_size - 16
    extensions: tuple[ExtensionDescriptor, ...] = ()
    _index: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        idx = {}
        for f in self.base_fields:
            idx[f.name] = (0, f)
        for ext in self.extensions:
            for f in ext.payload_fields:
                if f.name in idx:
                    raise OverlappingFields(f"field {f.name!r} shadows an earlier level")
                idx[f.name] = (ext.level, f)
        object.__setattr__(self, "_index", idx)

    def resolve(self, name: str) -> tuple[int, FieldLayout]:
        """Return (level, field); level 0 means a base field."""
        try:
            return self._index[name]
        except KeyError:
            raise NoSuchField(f"{self.type_name} has no field {name!r}") from None

    @property
    def fingerprint(self) -> int:
        """Hash of the base layout only: stable under appended extensions."""
        blob = json.dumps(
            [self.type_name]
            + [[f.name, f.offset, f.size, f.kind, f.encoding] for f in self.base_fields],
            separators=(",", ":"),
        ).encode()
        return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")


def define_type(name: str, field_specs) -> TypeDescriptor:
    base = define_record(field_specs)
    base_size = _round16(base.size + LINK_SIZE)
    return TypeDescriptor(name, base.fields, base_size, base_size - LINK_SIZE)


def append_extension(
    desc: TypeDescriptor, field_specs, init_rule, *, level: int | None = None
) -> TypeDescriptor:
    expected = len(desc.extensions) + 1
    if level is not None and level != expected:
        raise NonContiguousLevel(f"next level is {expected}, got {level}")
    payload = define_record(field_specs)
    if payload.size == 0:
        raise OverlappingFields("extension must declare at least one field")
    ext = ExtensionDescriptor(expected, payload.fields, payload.size, init_rule, payload.size)
    return TypeDescriptor(
        desc.type_name, desc.base_fields, desc.base_size, desc.link_offset,
        desc.extensions + (ext,),
    )


# --------------------------------------------------------------------- access

class FieldView:
    """Read-only view of an object's base fields and extensions below a level."""

    def __init__(self, pool, oid, desc, upto_level, base_off=0):
        self.pool = pool
        self.oid = oid
        self.desc = desc
        self.upto = upto_level
        self.base_off = base_off

    def read(self, name: str):
        level, f = self.desc.resolve(name)
        if level > self.upto:
            raise NoSuchField(f"{name!r} is above level {self.upto} in this view")
        if level == 0:
            raw = self.pool.load(self.oid, self.base_off + f.offset, f.size)
            return f.decode(raw)
        rec = _walk_chain(self.pool, self.oid, self.desc, level, self.base_off)
        if rec is None:
            raise NoSuchField(f"level {level} not materialized")
        return f.decode(self.pool.load(rec, f.offset, f.size))


def _init_payload(pool, oid, desc, ext, base_off) -> bytes:
    rule = ext.init_rule
    if callable(rule):
        payload = rule(FieldView(pool, oid, desc, ext.level - 1, base_off))
        if len(payload) != ext.payload_size:
            raise NoSuchField(
                f"init rule returned {len(payload)} bytes, payload is {ext.payload_size}"
            )
        return bytes(payload)
    op = rule["op"]
    if op == "zero":
        return bytes(ext.payload_size)
    if op == "copy_fields":
        view = FieldView(pool, oid, desc, ext.level - 1, base_off)
        out = bytearray(ext.payload_size)
        for f in ext.payload_fields:
            src = rule["map"].get(f.name)
            if src is None:
                continue
            out[f.offset : f.offset + f.size] = f.encode(view.read(src))
        return bytes(out)
    raise NoSuchField(f"unknown init op {op!r}")


def _walk_chain(pool, oid, desc, level, base_off=0):
    """Follow links without materializing; None if the chain stops short."""
    cur, link_off = oid, base_off + desc.link_offset
    for ext in desc.extensions[:level]:
        nxt = ObjectId.unpack(pool.load(cur, link_off, LINK_SIZE))
        if nxt.is_null():
            return None
        cur, link_off = nxt, ext.link_offset
    return cur


def ensure_extension(tx, pool, oid, desc, level, *, base_off: int = 0) -> ObjectId:
    """Materialize extensions up to `level` for one object; idempotent.

    Walks the link chain from the base record; every null link up to the
    requested level is replaced by a freshly allocated, init-rule-filled
    record. Each link inspection counts one check; each materialization
    counts one allocation and its bytes. A null link with no transaction
    (`tx` or the active one) raises TxRequired, before anything is stored.
    """
    if level < 1 or level > len(desc.extensions):
        raise UnknownLevel(f"{desc.type_name} has {len(desc.extensions)} levels, asked {level}")
    stats = pool.stats
    cur, link_off = oid, base_off + desc.link_offset
    for ext in desc.extensions[:level]:
        stats.checks += 1
        nxt = ObjectId.unpack(pool.load(cur, link_off, LINK_SIZE))
        if nxt.is_null():
            etx = tx if tx is not None else pool._active_tx
            if etx is None:
                raise TxRequired("materializing an extension needs a transaction")
            before = stats.bytes_user
            payload = _init_payload(pool, oid, desc, ext, base_off)
            rec = etx.alloc_zeroed(ext.record_size)
            etx.write(rec, 0, payload + NULL_OID.pack())  # the link follows the payload
            etx.write(cur, link_off, rec.pack())
            stats.allocations += 1
            stats.ext_bytes += stats.bytes_user - before
            nxt = rec
        cur, link_off = nxt, ext.link_offset
    return cur


def extension_record(pool: PoolHandle, oid: ObjectId, desc: TypeDescriptor, level: int,
                     *, base_off: int = 0) -> ObjectId:
    """One object's level-`level` extension record, materialized on first
    touch. Outside any transaction the walk runs in an implicit single-op
    transaction, so an upgrade's init value is durable; over a chain that is
    already there it logs nothing, so its commit stores nothing."""
    if pool._active_tx is None:
        with Transaction(pool):
            return ensure_extension(None, pool, oid, desc, level, base_off=base_off)
    return ensure_extension(None, pool, oid, desc, level, base_off=base_off)


def read_field(pool: PoolHandle, oid: ObjectId, desc: TypeDescriptor, name: str,
               *, base_off: int = 0):
    """Read a base or extension field, materializing lazily on first touch
    (see extension_record)."""
    level, f = desc.resolve(name)
    if level == 0:
        return f.decode(pool.load(oid, base_off + f.offset, f.size))
    rec = extension_record(pool, oid, desc, level, base_off=base_off)
    return f.decode(pool.load(rec, f.offset, f.size))


def write_field(pool: PoolHandle, oid: ObjectId, desc: TypeDescriptor, name: str,
                value, *, base_off: int = 0) -> None:
    """Store a base or extension field through the active transaction if any.

    Writing an extension field of a not-yet-extended object requires an
    active transaction (the materialization must be atomic with the store):
    ensure_extension raises TxRequired without one.
    """
    level, f = desc.resolve(name)
    tx = pool._active_tx
    if level == 0:
        data = f.encode(value)
        if tx is not None:
            tx.write(oid, base_off + f.offset, data)
        else:
            pool.store(oid, base_off + f.offset, data)
        return
    rec = ensure_extension(tx, pool, oid, desc, level, base_off=base_off)
    data = f.encode(value)
    if tx is not None:
        tx.write(rec, f.offset, data)
    else:
        pool.store(rec, f.offset, data)


# --------------------------------------------------------------------- copies

def clone_extension_chain(tx, pool, first: ObjectId, desc: TypeDescriptor) -> ObjectId:
    """Clone every record reachable from `first`, a non-null link, and count
    one deep copy; returns the clone chain head."""
    pool.stats.deep_copies += 1
    head = NULL_OID
    prev_rec, prev_link = None, 0
    cur = first
    for ext in desc.extensions:
        if cur.is_null():
            break
        clone = tx.alloc_zeroed(ext.record_size)
        tx.copy_bytes(clone, 0, cur, 0, ext.record_size)
        if prev_rec is None:
            head = clone
        else:
            tx.write(prev_rec, prev_link, clone.pack())
        cur = ObjectId.unpack(pool.load(cur, ext.link_offset, LINK_SIZE))
        prev_rec, prev_link = clone, ext.link_offset
    return head


def deep_copy(tx, pool, oid: ObjectId, desc: TypeDescriptor, *,
              shallow: bool = False) -> ObjectId:
    """Clone a standalone extendible record.

    Deep mode clones the whole extension chain and relinks the copy; shallow
    mode copies the base record verbatim, sharing extension records, which
    is only safe for short-lived read-only temporaries.
    """
    new = tx.alloc_zeroed(desc.base_size)
    tx.copy_bytes(new, 0, oid, 0, desc.base_size)
    if shallow:
        return new
    first = ObjectId.unpack(pool.load(oid, desc.link_offset, LINK_SIZE))
    if not first.is_null():
        head = clone_extension_chain(tx, pool, first, desc)
        tx.write(new, desc.link_offset, head.pack())
    return new


def free_extension_chain(tx, pool, first: ObjectId, desc: TypeDescriptor) -> None:
    """Free every record reachable from `first`."""
    cur = first
    for ext in desc.extensions:
        if cur.is_null():
            break
        nxt = ObjectId.unpack(pool.load(cur, ext.link_offset, LINK_SIZE))
        tx.free(cur)
        cur = nxt


def free_extendible(tx, pool, oid: ObjectId, desc: TypeDescriptor) -> None:
    """Free a record and its whole extension chain, extensions of extensions included."""
    pool._check_owned_for_free(oid)  # freed-again surfaces as DoubleFree, not OutOfBounds
    first = ObjectId.unpack(pool.load(oid, desc.link_offset, LINK_SIZE))
    free_extension_chain(tx, pool, first, desc)
    tx.free(oid)


# ------------------------------------------------------------------- manifest

def dump_manifest(descs, path: str) -> None:
    types = []
    for d in descs:
        exts = []
        for ext in d.extensions:
            if callable(ext.init_rule):
                raise ValueError(
                    f"{d.type_name} level {ext.level}: callable init rules are not serializable"
                )
            exts.append({
                "level": ext.level,
                "fields": [[f.name, _code_of(f), f.offset] for f in ext.payload_fields],
                "payload_size": ext.payload_size,
                "init": ext.init_rule,
            })
        types.append({
            "name": d.type_name,
            "base_fields": [[f.name, _code_of(f), f.offset] for f in d.base_fields],
            "base_size": d.base_size,
            "extensions": exts,
            "fingerprint": d.fingerprint,
        })
    with open(path, "w") as fh:
        json.dump({"format": 1, "types": types}, fh, indent=2, sort_keys=True)


def load_manifest(path: str) -> list[TypeDescriptor]:
    with open(path) as fh:
        doc = json.load(fh)
    out = []
    for t in doc["types"]:
        desc = define_type(t["name"], [tuple(f) for f in t["base_fields"]])
        if desc.base_size != t["base_size"]:
            raise OverlappingFields(
                f"{t['name']}: computed base size {desc.base_size} != stored {t['base_size']}"
            )
        for ext in sorted(t["extensions"], key=lambda e: e["level"]):
            desc = append_extension(desc, [tuple(f) for f in ext["fields"]], ext["init"])
        if desc.fingerprint != t["fingerprint"]:
            raise OverlappingFields(f"{t['name']}: fingerprint drift on load")
        out.append(desc)
    return out


def manifest_fingerprint(descs) -> int:
    """Order-independent combined fingerprint of a descriptor set's base layouts."""
    blob = json.dumps(sorted(d.fingerprint for d in descs)).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")
