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
levels would misinterpret older data. The base-layout fingerprint hashes
each type's name and base fields alone, so it does not see that: "change"
and "add" schemas share one fingerprint, and an edited level 1 goes unseen.

Each job on a whole chain has one function, the one the map kernels call:
deep_copy moves the chain behind a link to a clone when its record is
copied to a new slot, and frees the originals; free_extendible frees the
chain with its record. A schema manifest loads only if every level number
and payload size agrees with the fields it lists.

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
from .layout import NULL_OID, FieldLayout, ObjectId, define_record
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


def ensure_extension(pool, oid, desc, level, *, base_off: int = 0) -> ObjectId:
    """Materialize extensions up to `level` for one object; idempotent.

    Walks the link chain from the base record; every null link up to the
    requested level is replaced by a freshly allocated, init-rule-filled
    record, through the pool's active transaction. Each link inspection
    counts one check; each materialization counts one allocation and its
    bytes. A null link with no active transaction raises TxRequired, before
    anything is stored.
    """
    if level < 1 or level > len(desc.extensions):
        raise UnknownLevel(f"{desc.type_name} has {len(desc.extensions)} levels, asked {level}")
    stats = pool.stats
    cur, link_off = oid, base_off + desc.link_offset
    for ext in desc.extensions[:level]:
        stats.checks += 1
        nxt = ObjectId.unpack(pool.load(cur, link_off, LINK_SIZE))
        if nxt.is_null():
            tx = pool._active_tx
            if tx is None:
                raise TxRequired("materializing an extension needs a transaction")
            before = stats.bytes_user
            payload = _init_payload(pool, oid, desc, ext, base_off)
            rec = tx.alloc_zeroed(ext.record_size)
            tx.write(rec, 0, payload + NULL_OID.pack())  # the link follows the payload
            tx.write(cur, link_off, rec.pack())
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
            return ensure_extension(pool, oid, desc, level, base_off=base_off)
    return ensure_extension(pool, oid, desc, level, base_off=base_off)


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
    if level == 0:
        target, off = oid, base_off + f.offset
    else:
        target = ensure_extension(pool, oid, desc, level, base_off=base_off)
        off = f.offset
    data = f.encode(value)
    tx = pool._active_tx
    if tx is not None:
        tx.write(target, off, data)
    else:
        pool.store(target, off, data)


# ------------------------------------------------------------- chain moves

def deep_copy(tx, pool, first: ObjectId, desc: TypeDescriptor) -> ObjectId:
    """Move the extension chain that starts at `first`, a non-null link, to a
    clone: each record is copied, the copy linked from the one before, and
    the original freed. Counts one deep copy; returns the clone's head."""
    pool.stats.deep_copies += 1
    head = NULL_OID
    prev_rec, prev_link = None, 0
    cur = first
    for ext in desc.extensions:
        if cur.is_null():
            break
        raw = pool.load(cur, 0, ext.record_size)
        clone = tx.alloc_zeroed(ext.record_size)
        tx.write(clone, 0, raw)
        if prev_rec is None:
            head = clone
        else:
            tx.write(prev_rec, prev_link, clone.pack())
        tx.free(cur)
        cur = ObjectId.unpack(raw, ext.link_offset)
        prev_rec, prev_link = clone, ext.link_offset
    return head


def free_extendible(tx, pool, first: ObjectId, desc: TypeDescriptor) -> None:
    """Free the extension chain that starts at the link `first`, extensions of
    extensions included, and load no link of the last level; a null link frees nothing."""
    cur = first
    for ext in desc.extensions[:-1]:
        if cur.is_null():
            return
        nxt = ObjectId.unpack(pool.load(cur, ext.link_offset, LINK_SIZE))
        tx.free(cur)
        cur = nxt
    if desc.extensions and not cur.is_null():
        tx.free(cur)


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
                "fields": [[f.name, f.code, f.offset] for f in ext.payload_fields],
                "payload_size": ext.payload_size,
                "init": ext.init_rule,
            })
        types.append({
            "name": d.type_name,
            "base_fields": [[f.name, f.code, f.offset] for f in d.base_fields],
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
            desc = append_extension(desc, [tuple(f) for f in ext["fields"]], ext["init"],
                                    level=ext["level"])
            if desc.extensions[-1].payload_size != ext["payload_size"]:
                raise OverlappingFields(
                    f"{t['name']} level {ext['level']}: computed payload size "
                    f"{desc.extensions[-1].payload_size} != stored {ext['payload_size']}"
                )
        if desc.fingerprint != t["fingerprint"]:
            raise OverlappingFields(f"{t['name']}: fingerprint drift on load")
        out.append(desc)
    return out


def manifest_fingerprint(descs) -> int:
    """Order-independent combined fingerprint of a descriptor set's base layouts."""
    blob = json.dumps(sorted(d.fingerprint for d in descs)).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")
