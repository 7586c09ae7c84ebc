"""Extendible descriptors: layout math, lazy materialization, copies, manifests."""

import json

import pytest

from ledstore import (
    NULL_OID,
    NoSuchField,
    NonContiguousLevel,
    ObjectId,
    OverlappingFields,
    TxRequired,
    UnknownLevel,
    open_pool,
)
from ledstore.leds import (
    FieldView,
    append_extension,
    deep_copy,
    define_record,
    define_type,
    dump_manifest,
    ensure_extension,
    free_extendible,
    load_manifest,
    manifest_fingerprint,
    read_field,
    write_field,
)


def ll_type():
    return define_type("LL", [("val", "i32"), ("next", "oid")])


def ll_extended():
    return append_extension(ll_type(), [("val_fl", "f64")],
                            {"op": "copy_fields", "map": {"val_fl": "val"}})


class TestLayouts:
    def test_base_layout_math(self):
        desc = ll_type()
        # 4 + 16 packed, plus the trailing link, padded to a 16-byte multiple
        assert desc.base_size == 48
        assert desc.link_offset == 32
        offs = {f.name: f.offset for f in desc.base_fields}
        assert offs == {"val": 0, "next": 4}

    def test_extension_record_size(self):
        desc = ll_extended()
        ext = desc.extensions[0]
        assert ext.payload_size == 8
        assert ext.record_size == 24
        assert ext.link_offset == 8

    def test_noncontiguous_level_rejected(self):
        desc = ll_type()
        with pytest.raises(NonContiguousLevel):
            append_extension(desc, [("x", "u64")], {"op": "zero"}, level=3)

    def test_overlapping_fields_rejected(self):
        with pytest.raises(OverlappingFields):
            define_type("bad", [("a", "u64", 0), ("b", "u32", 4)])

    def test_duplicate_names_rejected(self):
        with pytest.raises(OverlappingFields):
            define_type("bad", [("a", "u32"), ("a", "u64")])

    def test_zero_payload_extension_rejected(self):
        with pytest.raises(OverlappingFields):
            append_extension(ll_type(), [], {"op": "zero"})

    def test_fingerprint_invariant_under_append(self):
        base = ll_type()
        assert base.fingerprint == ll_extended().fingerprint

    def test_record_codec_zero_fills_and_skips_gaps(self):
        rec = define_record([("k", "u32"), ("f", "f64", 8), ("name", "bytes4")])
        assert rec.size == 20
        assert rec.offsets == {"k": 0, "f": 8, "name": 16}
        raw = rec.pack(7)  # f and name not given: zero-filled
        assert raw == (7).to_bytes(4, "little") + bytes(16)
        assert rec.unpack_from(rec.pack(7, 0.5, b"ab")) == (7, 0.5, b"ab\0\0")
        assert rec.field("f").encode(0.5) == rec.pack(0, 0.5)[8:16]

    def test_fingerprint_sensitive_to_base_change(self):
        a = define_type("T", [("k", "u32")])
        b = define_type("T", [("k", "u64")])
        assert a.fingerprint != b.fingerprint


def make_obj(pool, desc, val):
    with pool.tx_begin() as tx:
        oid = tx.alloc_zeroed(desc.base_size)
        tx.write(oid, 0, desc.base_fields[0].encode(val))
    return oid


class TestEnsure:
    def test_first_materialization_is_40_bytes(self, pool):
        desc = ll_extended()
        oid = make_obj(pool, desc, 7)
        before = pool.stats.snapshot()
        with pool.tx_begin():
            ensure_extension(pool, oid, desc, 1)
        d = pool.stats.delta(before)
        assert d["allocations"] == 1
        assert d["ext_bytes"] == 40      # 24-byte record + 16-byte link store
        assert d["n_allocs"] == 1

    def test_idempotent(self, pool):
        desc = ll_extended()
        oid = make_obj(pool, desc, 7)
        with pool.tx_begin():
            first = ensure_extension(pool, oid, desc, 1)
        before = pool.stats.snapshot()
        with pool.tx_begin():
            again = ensure_extension(pool, oid, desc, 1)
        assert again == first
        assert pool.stats.delta(before)["allocations"] == 0
        assert pool.stats.delta(before)["n_allocs"] == 0

    def test_two_levels_chain(self, pool):
        desc = append_extension(ll_extended(), [("tag", "u64")], {"op": "zero"})
        oid = make_obj(pool, desc, 3)
        before = pool.stats.snapshot()
        with pool.tx_begin():
            lvl2 = ensure_extension(pool, oid, desc, 2)
        assert pool.stats.delta(before)["allocations"] == 2
        # oracle: walk the links and count non-null hops
        l1 = ObjectId.unpack(pool.load(oid, desc.link_offset, 16))
        assert not l1.is_null()
        l2 = ObjectId.unpack(pool.load(l1, desc.extensions[0].link_offset, 16))
        assert l2 == lvl2

    def test_partial_chain_is_a_prefix(self, pool):
        """Materializing level 1 of a two-level type leaves level 2 null."""
        desc = append_extension(ll_extended(), [("tag", "u64")], {"op": "zero"})
        oid = make_obj(pool, desc, 3)
        with pool.tx_begin():
            lvl1 = ensure_extension(pool, oid, desc, 1)
        assert not ObjectId.unpack(pool.load(oid, desc.link_offset, 16)).is_null()
        assert ObjectId.unpack(
            pool.load(lvl1, desc.extensions[0].link_offset, 16)).is_null()

    def test_unknown_level(self, pool):
        desc = ll_extended()
        oid = make_obj(pool, desc, 1)
        with pool.tx_begin():
            with pytest.raises(UnknownLevel):
                ensure_extension(pool, oid, desc, 2)

    def test_materialization_requires_tx(self, pool):
        desc = ll_extended()
        oid = make_obj(pool, desc, 1)
        with pytest.raises(TxRequired):
            ensure_extension(pool, oid, desc, 1)


class TestFieldAccess:
    def test_init_copies_int_to_float(self, pool):
        desc = ll_extended()
        oid = make_obj(pool, desc, 7)
        assert read_field(pool, oid, desc, "val_fl") == 7.0

    def test_base_read_stays_lazy(self, pool):
        desc = ll_extended()
        oid = make_obj(pool, desc, 9)
        before = pool.stats.snapshot()
        assert read_field(pool, oid, desc, "val") == 9
        d = pool.stats.delta(before)
        assert d["allocations"] == 0
        assert d["checks"] == 0

    def test_thousand_reads_one_alloc_thousand_checks(self, pool):
        desc = ll_extended()
        oid = make_obj(pool, desc, 5)
        before = pool.stats.snapshot()
        for _ in range(1000):
            assert read_field(pool, oid, desc, "val_fl") == 5.0
        d = pool.stats.delta(before)
        assert d["allocations"] == 1      # oracle: counter deltas
        assert d["checks"] == 1000

    def test_write_unextended_outside_tx_rejected(self, pool):
        desc = ll_extended()
        oid = make_obj(pool, desc, 5)
        with pytest.raises(TxRequired):
            write_field(pool, oid, desc, "val_fl", 1.5)

    def test_write_then_read(self, pool):
        desc = ll_extended()
        oid = make_obj(pool, desc, 5)
        with pool.tx_begin():
            write_field(pool, oid, desc, "val_fl", 2.5)
        assert read_field(pool, oid, desc, "val_fl") == 2.5

    def test_init_rule_reads_a_lower_level(self, pool):
        """A level-2 init rule reads level 1's field by walking the chain."""
        desc = append_extension(ll_extended(), [("val_copy", "f64")],
                                {"op": "copy_fields", "map": {"val_copy": "val_fl"}})
        oid = make_obj(pool, desc, 7)
        with pytest.raises(NoSuchField):  # level 1 not there yet: the walk stops short
            FieldView(pool, oid, desc, 1).read("val_fl")
        with pool.tx_begin():
            write_field(pool, oid, desc, "val_fl", 2.5)
        assert FieldView(pool, oid, desc, 1).read("val_fl") == 2.5
        assert read_field(pool, oid, desc, "val_copy") == 2.5  # not the base's 7
        with pytest.raises(NoSuchField):
            FieldView(pool, oid, desc, 1).read("val_copy")

    def test_unknown_field(self, pool):
        desc = ll_extended()
        oid = make_obj(pool, desc, 5)
        with pytest.raises(NoSuchField):
            read_field(pool, oid, desc, "nope")

    def test_init_deterministic(self, pool):
        desc = ll_extended()
        vals = {}
        for v in (0, 1, -3, 2**31 - 1):
            oid = make_obj(pool, desc, v)
            vals[v] = read_field(pool, oid, desc, "val_fl")
        assert vals == {0: 0.0, 1: 1.0, -3: -3.0, 2**31 - 1: float(2**31 - 1)}

    def test_upgrades_persist_across_reopen(self, pool, pool_path):
        desc = ll_extended()
        oid = make_obj(pool, desc, 11)
        assert read_field(pool, oid, desc, "val_fl") == 11.0
        pool.close()
        with open_pool(pool_path, "test-layout") as re:
            before = re.stats.snapshot()
            assert read_field(re, oid, desc, "val_fl") == 11.0
            assert re.stats.delta(before)["allocations"] == 0  # found via link


def chain(pool, oid, desc):
    """The extension record ids reachable from `oid`'s link, in level order."""
    out, cur, link_off = [], oid, desc.link_offset
    for ext in desc.extensions:
        cur = ObjectId.unpack(pool.load(cur, link_off, 16))
        if cur.is_null():
            break
        out.append(cur)
        link_off = ext.link_offset
    return out


class TestCopiesAndFrees:
    def test_copy_two_extensions_isolated(self, pool):
        desc = append_extension(ll_extended(), [("tag", "u64")], {"op": "zero"})
        oid = make_obj(pool, desc, 4)
        with pool.tx_begin():
            write_field(pool, oid, desc, "tag", 77)
        source = chain(pool, oid, desc)
        assert len(source) == 2
        live = pool.live_bytes
        before = pool.stats.snapshot()
        with pool.tx_begin() as tx:
            cp = tx.alloc_zeroed(desc.base_size)
            tx.copy_bytes(cp, 0, oid, 0, desc.link_offset)
            head = deep_copy(tx, pool, source[0], desc)
            tx.write(cp, desc.link_offset, head.pack())
            # 48-byte base + two 24->32 rounded clones; the originals go at commit
            assert pool.live_bytes == live + 48 + 32 + 32
        d = pool.stats.delta(before)
        assert d["deep_copies"] == 1
        assert d["n_allocs"] == 3
        assert pool.live_bytes == live + 48  # oracle: allocator accounting
        clones = chain(pool, cp, desc)
        assert clones[0] == head and len(clones) == 2
        assert not set(clones) & set(source)
        assert read_field(pool, cp, desc, "val_fl") == 4.0
        assert read_field(pool, cp, desc, "tag") == 77

    def test_free_extendible_reclaims_chain(self, pool):
        desc = append_extension(ll_extended(), [("tag", "u64")], {"op": "zero"})
        oid = make_obj(pool, desc, 4)
        with pool.tx_begin():
            ensure_extension(pool, oid, desc, 2)
        first = chain(pool, oid, desc)[0]
        live = pool.live_bytes
        with pool.tx_begin() as tx:
            free_extendible(tx, pool, first, desc)
        # oracle: allocator accounting; two 24->32 rounded records, base kept
        assert pool.live_bytes == live - 32 - 32

    def test_free_unextended_is_plain_free(self, pool):
        desc = ll_extended()
        oid = make_obj(pool, desc, 4)
        live = pool.live_bytes
        before = pool.stats.snapshot()
        with pool.tx_begin() as tx:
            free_extendible(tx, pool, NULL_OID, desc)  # the null link frees nothing
            assert pool.stats.delta(before)["flush_events"] == 0
            tx.free(oid)
        assert pool.stats.delta(before)["n_frees"] == 1
        assert pool.live_bytes == live - 48


class TestTranslationCache:
    def test_cache_on_single_miss(self, pool):
        desc = ll_extended()
        oid = make_obj(pool, desc, 5)
        read_field(pool, oid, desc, "val_fl")  # materialize first
        pool.set_translation_cache(True)
        with pool.tx_begin():
            before = pool.stats.translations
            for _ in range(1000):
                read_field(pool, oid, desc, "val_fl")
            misses = pool.stats.translations - before
        # one miss per distinct record touched inside the transaction
        assert misses == 2  # base record + extension record

    def test_cache_cleared_at_tx_boundary(self, pool):
        desc = ll_extended()
        oid = make_obj(pool, desc, 5)
        read_field(pool, oid, desc, "val_fl")
        pool.set_translation_cache(True)
        with pool.tx_begin():
            read_field(pool, oid, desc, "val_fl")
        before = pool.stats.translations
        with pool.tx_begin():
            read_field(pool, oid, desc, "val_fl")
        assert pool.stats.translations - before == 2  # misses again after boundary

    def test_cache_off_never_fewer_translations(self, pool):
        desc = ll_extended()
        oid = make_obj(pool, desc, 5)
        read_field(pool, oid, desc, "val_fl")

        def workload():
            before = pool.stats.translations
            with pool.tx_begin():
                for _ in range(100):
                    read_field(pool, oid, desc, "val_fl")
            return pool.stats.translations - before

        pool.set_translation_cache(False)
        off = workload()
        pool.set_translation_cache(True)
        on = workload()
        assert off >= on  # oracle: paired run


class TestManifest:
    def test_round_trip(self, tmp_path):
        descs = [ll_extended(), define_type("plain", [("k", "u64"), ("name", "bytes16")])]
        path = str(tmp_path / "schema.json")
        dump_manifest(descs, path)
        loaded = load_manifest(path)
        assert [d.type_name for d in loaded] == ["LL", "plain"]
        assert loaded[0].base_size == descs[0].base_size
        assert loaded[0].extensions[0].payload_size == 8
        assert manifest_fingerprint(loaded) == manifest_fingerprint(descs)
        assert loaded == descs
        with open(path) as fh:  # each field's code as it was declared
            plain = json.load(fh)["types"][1]
        assert plain["base_fields"] == [["k", "u64", 0], ["name", "bytes16", 8]]

    def test_level_gap_rejected(self, tmp_path):
        desc = append_extension(ll_extended(), [("tag", "u64")], {"op": "zero"})
        path = tmp_path / "schema.json"
        dump_manifest([desc], str(path))
        doc = json.loads(path.read_text())
        doc["types"][0]["extensions"][1]["level"] = 5
        path.write_text(json.dumps(doc))
        with pytest.raises(NonContiguousLevel):
            load_manifest(str(path))

    def test_payload_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "schema.json"
        dump_manifest([ll_extended()], str(path))
        doc = json.loads(path.read_text())
        doc["types"][0]["extensions"][0]["payload_size"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(OverlappingFields):
            load_manifest(str(path))

    def test_callable_init_not_serializable(self, tmp_path):
        desc = append_extension(ll_type(), [("x", "u64")], lambda view: bytes(8))
        with pytest.raises(ValueError):
            dump_manifest([desc], str(tmp_path / "bad.json"))

    def test_callable_init_works_at_runtime(self, pool):
        desc = append_extension(
            ll_type(), [("doubled", "i64")],
            lambda view: desc.extensions[0].payload_fields[0].encode(view.read("val") * 2),
        )
        oid = make_obj(pool, desc, 21)
        assert read_field(pool, oid, desc, "doubled") == 42
