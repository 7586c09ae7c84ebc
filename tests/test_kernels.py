"""Map kernels: structure validity, shadow-model equivalence, migrations."""

import random

import pytest

from ledstore import create_pool
from ledstore.kernels import KINDS, make_kernel, make_manual_migrator
from ledstore.retention import run_migration

MIB = 1024 * 1024


def fresh_kernel(tmp_path, kind, name="k", **kw):
    pool = create_pool(str(tmp_path / f"{name}.pool"), f"{kind}-v1", 32 * MIB)
    k = make_kernel(pool, kind, **kw)
    k.create()
    return pool, k


def run_ops(pool, kernel, ops):
    for op in ops:
        with pool.tx_begin() as tx:
            if op[0] == "ins":
                kernel.insert(tx, op[1], op[2])
            else:
                kernel.remove(tx, op[1])


@pytest.mark.parametrize("kind", KINDS)
class TestBasicOps:
    def test_insert_lookup(self, tmp_path, kind):
        pool, k = fresh_kernel(tmp_path, kind)
        with pool.tx_begin() as tx:
            assert k.insert(tx, 5, 500)
        assert k.lookup(5) == 500
        assert k.lookup(6) is None
        assert k.count() == 1
        k.validate()
        pool.close()

    def test_duplicate_insert_rejected(self, tmp_path, kind):
        pool, k = fresh_kernel(tmp_path, kind)
        with pool.tx_begin() as tx:
            assert k.insert(tx, 9, 1)
        before = sorted(k.scan())
        with pool.tx_begin() as tx:
            assert not k.insert(tx, 9, 2)
        assert sorted(k.scan()) == before
        assert k.lookup(9) == 1
        pool.close()

    def test_remove_absent(self, tmp_path, kind):
        pool, k = fresh_kernel(tmp_path, kind)
        with pool.tx_begin() as tx:
            assert not k.remove(tx, 42)
        pool.close()

    def test_insert_remove_all(self, tmp_path, kind):
        pool, k = fresh_kernel(tmp_path, kind)
        keys = [7, 3, 11, 1, 9, 5, 13, 2, 8]
        for key in keys:
            with pool.tx_begin() as tx:
                assert k.insert(tx, key, key * 10)
            k.validate()
        assert sorted(k.scan()) == sorted((key, key * 10) for key in keys)
        for key in keys:
            with pool.tx_begin() as tx:
                assert k.remove(tx, key)
            k.validate()
        assert k.count() == 0
        assert list(k.scan()) == []
        pool.close()

    def test_scan_sorted_for_trees(self, tmp_path, kind):
        pool, k = fresh_kernel(tmp_path, kind)
        rng = random.Random(7)
        keys = rng.sample(range(1, 100000), 300)
        for key in keys:
            with pool.tx_begin() as tx:
                k.insert(tx, key, key)
        scanned = [key for key, _ in k.scan()]
        if kind != "hashmap":
            assert scanned == sorted(keys)
        else:
            assert sorted(scanned) == sorted(keys)
        pool.close()

    def test_fuzz_against_shadow(self, tmp_path, kind):
        pool, k = fresh_kernel(tmp_path, kind)
        rng = random.Random(0xBEEF)
        shadow = {}
        for step in range(2000):
            key = rng.randrange(1, 400)
            if key in shadow:
                with pool.tx_begin() as tx:
                    assert k.remove(tx, key)
                del shadow[key]
            else:
                value = rng.getrandbits(63)
                with pool.tx_begin() as tx:
                    assert k.insert(tx, key, value)
                shadow[key] = value
            if step % 97 == 0:
                k.validate()
        k.validate()
        assert dict(k.scan()) == shadow  # oracle: shadow map replay
        pool.close()


@pytest.mark.parametrize("kind", KINDS)
class TestPersistence:
    def test_reopen_and_continue(self, tmp_path, kind):
        from ledstore import open_pool

        path = str(tmp_path / "p.pool")
        pool = create_pool(path, f"{kind}-v1", 32 * MIB)
        k = make_kernel(pool, kind)
        k.create()
        run_ops(pool, k, [("ins", key, key) for key in (4, 8, 15, 16, 23, 42)])
        pool.close()

        pool = open_pool(path, f"{kind}-v1")
        k = make_kernel(pool, kind)
        k.attach()
        assert k.lookup(15) == 15
        with pool.tx_begin() as tx:
            k.insert(tx, 99, 99)
            k.remove(tx, 4)
        k.validate()
        assert dict(k.scan()) == {8: 8, 15: 15, 16: 16, 23: 23, 42: 42, 99: 99}
        pool.close()


NODE_SIZES = {  # requested node size: manual v1, v2 change, v2 add; auto
    "hashmap": (36, 40, 52, 64),
    "skiplist": (84, 88, 100, 112),
    "ctree": (44, 52, 76, 100),
    "btree": (292, 324, 420, 516),
    "rbtree": (72, 76, 88, 96),
}
LANES = [("manual", 1, "change"), ("manual", 2, "change"), ("manual", 2, "add"),
         ("auto", 1, "change")]


@pytest.mark.parametrize("lane", range(len(LANES)),
                         ids=["v1", "v2-change", "v2-add", "auto"])
@pytest.mark.parametrize("kind", KINDS)
def test_derived_node_size(tmp_path, monkeypatch, kind, lane):
    """The layouts derived from each kernel's one field list allocate the
    node sizes its module docstring tabulates."""
    from ledstore.txn import Transaction

    mode, version, change = LANES[lane]
    pool, k = fresh_kernel(tmp_path, kind, mode=mode, version=version, change=change,
                           rng=random.Random(3))
    sizes = []
    real_alloc = Transaction.alloc_zeroed

    def alloc(self, size):
        sizes.append(size)
        return real_alloc(self, size)

    monkeypatch.setattr(Transaction, "alloc_zeroed", alloc)
    run_ops(pool, k, [("ins", key, key) for key in range(1, 9)])  # a B-tree split
    assert set(sizes) == {NODE_SIZES[kind][lane]}
    pool.close()


@pytest.mark.parametrize("kind", KINDS)
def test_lookup_resolves_each_node_once(tmp_path, monkeypatch, kind):
    """A lookup decodes every node it visits with one resolve: apart from
    the pool root, no payload offset is resolved twice in one lookup."""
    from ledstore.pool import PoolHandle

    pool, k = fresh_kernel(tmp_path, kind, rng=random.Random(3))
    keys = random.Random(5).sample(range(1, 1 << 20), 256)
    run_ops(pool, k, [("ins", key, key * 3) for key in keys])
    resolved = []
    real_resolve = PoolHandle._resolve

    def resolve(self, oid, *range_):
        resolved.append(oid.offset)
        return real_resolve(self, oid, *range_)

    monkeypatch.setattr(PoolHandle, "_resolve", resolve)
    root = pool.root_id.offset
    for key in keys[::8]:
        resolved.clear()
        assert k.lookup(key) == key * 3
        visits = [off for off in resolved if off != root]
        assert visits and len(visits) == len(set(visits)), (key, resolved)
    pool.close()


@pytest.mark.parametrize("kind", KINDS)
def test_update_reads_each_node_once(tmp_path, monkeypatch, kind):
    """Insert and remove decode every payload they touch once: within one
    op no payload, the pool root included, is read (`read` or `load`)
    twice unless a tx.write to it came in between."""
    from ledstore.pool import PoolHandle
    from ledstore.txn import Transaction

    pool, k = fresh_kernel(tmp_path, kind, rng=random.Random(3))
    rng = random.Random(7)
    keys = rng.sample(range(1, 1 << 20), 320)
    run_ops(pool, k, [("ins", key, key) for key in keys[:256]])
    ops = [("ins", key, key) for key in keys[256:]]
    ops += [("del", key) for key in rng.sample(keys[:256], 64)]
    rng.shuffle(ops)

    events = []
    real_read, real_load, real_write = PoolHandle.read, PoolHandle.load, Transaction.write

    def read(self, oid, codec, off=0):
        events.append(("read", oid.offset))
        return real_read(self, oid, codec, off)

    def load(self, oid, off, length):
        events.append(("read", oid.offset))
        return real_load(self, oid, off, length)

    def write(self, oid, off, data):
        events.append(("write", oid.offset))
        return real_write(self, oid, off, data)

    monkeypatch.setattr(PoolHandle, "read", read)
    monkeypatch.setattr(PoolHandle, "load", load)
    monkeypatch.setattr(Transaction, "write", write)
    for op in ops:
        events.clear()
        run_ops(pool, k, [op])
        fresh: set[int] = set()  # payloads read since their last write
        for event, off in events:
            if event == "write":
                fresh.discard(off)
            else:
                assert off not in fresh, (op, events)
                fresh.add(off)
    monkeypatch.undo()
    k.validate()
    pool.close()


def auto_kernel(tmp_path, kind, **kw):
    """An auto-lane version-2 "change" kernel over a fresh pool."""
    pool = create_pool(str(tmp_path / "auto.pool"), f"{kind}-v1", 32 * MIB)
    k = make_kernel(pool, kind, mode="auto", version=2, change="change",
                    rng=random.Random(3), **kw)
    k.create()
    return pool, k


@pytest.mark.parametrize("kind", KINDS)
def test_auto_lookup_of_materialized_key_resolves_each_payload_once(tmp_path, monkeypatch,
                                                                     kind):
    """In the auto "change" lane a lookup of a key whose key64 extension
    exists reads it straight from the extension record: no payload is
    resolved twice, one link check is counted and nothing is allocated."""
    from ledstore.pool import PoolHandle

    pool, k = auto_kernel(tmp_path, kind)
    keys = random.Random(5).sample(range(1, 1 << 20), 256)
    run_ops(pool, k, [("ins", key, key * 3) for key in keys])  # materializes key64
    resolved = []
    real_resolve = PoolHandle._resolve

    def resolve(self, oid, *range_):
        resolved.append(oid.offset)
        return real_resolve(self, oid, *range_)

    monkeypatch.setattr(PoolHandle, "_resolve", resolve)
    for key in keys[::8]:
        resolved.clear()
        before = pool.stats.snapshot()
        assert k.lookup(key) == key * 3
        assert len(resolved) == len(set(resolved)), (key, resolved)
        moved = pool.stats.delta(before)
        assert (moved["checks"], moved["allocations"], moved["flush_events"]) == (1, 0, 0)
    pool.close()


@pytest.mark.parametrize("shallow", [True, False], ids=["shallow", "deep"])
@pytest.mark.parametrize("kind", KINDS)
def test_auto_remove_frees_what_it_materializes(tmp_path, kind, shallow):
    """Version-2 removes over version-1 auto records materialize key64 on
    the match, then move and free entries in the same op: every extension
    is freed with its entry, and the map stays valid."""
    pool = create_pool(str(tmp_path / "auto.pool"), f"{kind}-v1", 32 * MIB)
    old = make_kernel(pool, kind, mode="auto", version=1, rng=random.Random(3))
    old.create()
    empty = pool.allocated_objects
    keys = random.Random(9).sample(range(1, 1 << 20), 200)
    run_ops(pool, old, [("ins", key, key) for key in keys])
    k = make_kernel(pool, kind, mode="auto", version=2, change="change",
                    shallow_copy=shallow, rng=random.Random(3))
    k.attach()
    order = random.Random(11).sample(keys, len(keys))
    for i, key in enumerate(order):
        with pool.tx_begin() as tx:
            assert k.remove(tx, key)
        if i % 50 == 0:
            k.validate()  # peeks at key64 links without materializing
    k.validate()
    assert pool.stats.allocations >= len(keys)
    assert pool.allocated_objects == empty, "an extension record leaked"
    pool.close()


@pytest.mark.parametrize("kind", KINDS)
def test_materializing_remove_resolves_its_extension_once(tmp_path, monkeypatch, kind):
    """A version-2 "change" remove of a key no earlier op touched allocates
    one block, its key64 extension, and resolves it once, for the store
    that builds it: the key it copies is not read back, and its free does
    not load the last level's link. (Shallow copy: a B-tree remove that
    moves the matched item before freeing it keeps its chain.)"""
    from ledstore import Transaction
    from ledstore.pool import PoolHandle

    pool = create_pool(str(tmp_path / "auto.pool"), f"{kind}-v1", 32 * MIB)
    old = make_kernel(pool, kind, mode="auto", version=1, rng=random.Random(3))
    old.create()
    keys = random.Random(9).sample(range(1, 1 << 20), 200)
    run_ops(pool, old, [("ins", key, key) for key in keys])
    k = make_kernel(pool, kind, mode="auto", version=2, change="change",
                    shallow_copy=True, rng=random.Random(3))
    k.attach()
    allocated, resolved = [], []
    real_alloc, real_resolve = Transaction.alloc_zeroed, PoolHandle._resolve

    def alloc_zeroed(tx, size):
        oid = real_alloc(tx, size)
        allocated.append(oid.offset)
        return oid

    def resolve(self, oid, *range_):
        resolved.append(oid.offset)
        return real_resolve(self, oid, *range_)

    monkeypatch.setattr(Transaction, "alloc_zeroed", alloc_zeroed)
    monkeypatch.setattr(PoolHandle, "_resolve", resolve)
    for key in random.Random(11).sample(keys, 50):
        allocated.clear()
        resolved.clear()
        before = pool.stats.snapshot()
        with pool.tx_begin() as tx:
            assert k.remove(tx, key)
        assert pool.stats.delta(before)["allocations"] == 1
        assert len(allocated) == 1, (key, allocated)
        assert resolved.count(allocated[0]) == 1, (key, resolved)
    k.validate()
    pool.close()


@pytest.mark.parametrize("mode", ["manual", "auto"])
def test_rbtree_update_stores_no_byte_twice_and_nothing_into_nil(tmp_path, monkeypatch, mode):
    """A red-black insert or remove stores each byte at most once, and nil's
    parent is scratch during a remove: no store of a remove targets nil's
    record, in either lane, and the tree stays valid."""
    from ledstore import Transaction

    pool, k = (auto_kernel(tmp_path, "rbtree") if mode == "auto"
               else fresh_kernel(tmp_path, "rbtree", rng=random.Random(3)))
    keys = random.Random(5).sample(range(1, 1 << 20), 400)
    writes = []  # (payload, start address, end address) of each tx.write of one op
    real_write = Transaction.write

    def write(tx, oid, off, data):
        writes.append((oid.offset, oid.offset + off, oid.offset + off + len(data)))
        return real_write(tx, oid, off, data)

    def stores_no_byte_twice(op) -> bool:
        writes.clear()
        run_ops(pool, k, [op])
        spans = sorted(span for _, *span in writes)
        return all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))

    monkeypatch.setattr(Transaction, "write", write)
    assert all(stores_no_byte_twice(("ins", key, key)) for key in keys)
    for key in random.Random(6).sample(keys, 200):
        assert stores_no_byte_twice(("del", key)), writes
        assert writes and k.nil not in [payload for payload, *_ in writes], writes
    k.validate()
    pool.close()


V2_RECORD_SIZES = {  # manual migration, bytes per migrated record
    edit: {kind: sizes[i] for kind, sizes in NODE_SIZES.items()}
    for i, edit in ((1, "change"), (2, "add"))
}


@pytest.mark.parametrize("kind", KINDS)
class TestManualMigration:
    def check_edit_preserves_content(self, tmp_path, kind, edit):
        pool, k = fresh_kernel(tmp_path, kind, rng=random.Random(3))
        rng = random.Random(11)
        keys = rng.sample(range(1, 10_000_000), 500)
        run_ops(pool, k, [("ins", key, key ^ 0xABCD) for key in keys])
        before = dict(k.scan())

        ms = run_migration(pool, make_manual_migrator(kind, edit))
        assert pool.layout_version == 2
        assert ms.nodes_migrated > 0
        assert ms.bytes_per_node == V2_RECORD_SIZES[edit][kind]
        if kind in ("hashmap", "skiplist", "rbtree"):
            assert ms.nodes_migrated == 500  # one record per key

        k2 = make_kernel(pool, kind, version=2, change=edit)
        k2.attach()
        k2.validate()
        assert dict(k2.scan()) == before  # oracle: full scan comparison
        pool.close()

    def test_change_preserves_content_exact_node_bytes(self, tmp_path, kind):
        self.check_edit_preserves_content(tmp_path, kind, "change")

    def test_add_preserves_content_exact_node_bytes(self, tmp_path, kind):
        self.check_edit_preserves_content(tmp_path, kind, "add")

    def test_add_zero_fills_name(self, tmp_path, kind):
        pool, k = fresh_kernel(tmp_path, kind, rng=random.Random(3))
        run_ops(pool, k, [("ins", key, key) for key in (10, 20, 30)])
        ms = run_migration(pool, make_manual_migrator(kind, "add"))
        assert ms.nodes_migrated > 0
        k2 = make_kernel(pool, kind, version=2, change="add")
        k2.attach()
        k2.validate()
        assert dict(k2.scan()) == {10: 10, 20: 20, 30: 30}
        pool.close()

    def test_empty_structure_migrates(self, tmp_path, kind):
        pool, k = fresh_kernel(tmp_path, kind)
        ms = run_migration(pool, make_manual_migrator(kind, "change"))
        if kind in ("hashmap", "skiplist", "rbtree", "btree"):
            # structural records only (buckets/head/nil/empty node), no entries
            assert ms.nodes_migrated == (1 if kind == "btree" else 0)
        else:
            assert ms.nodes_migrated == 0
        k2 = make_kernel(pool, kind, version=2, change="change")
        k2.attach()
        assert list(k2.scan()) == []
        pool.close()

    def test_old_nodes_freed(self, tmp_path, kind):
        pool, k = fresh_kernel(tmp_path, kind, rng=random.Random(3))
        keys = list(range(1, 200))
        run_ops(pool, k, [("ins", key, key) for key in keys])
        ms = run_migration(pool, make_manual_migrator(kind, "change"))
        assert ms.objects_freed > 0
        k2 = make_kernel(pool, kind, version=2, change="change")
        k2.attach()
        for key in keys:
            with pool.tx_begin() as tx:
                assert k2.remove(tx, key)
        assert k2.count() == 0
        pool.close()


@pytest.mark.parametrize("kind", KINDS)
class TestAutoMode:
    def build_v1(self, tmp_path, kind, keys):
        pool = create_pool(str(tmp_path / "a.pool"), f"{kind}-auto", 32 * MIB)
        k = make_kernel(pool, kind, mode="auto", version=1, rng=random.Random(5))
        k.create()
        run_ops(pool, k, [("ins", key, key * 3) for key in keys])
        return pool

    def reattach_v2(self, pool, kind, change):
        k = make_kernel(pool, kind, mode="auto", version=2, change=change,
                        rng=random.Random(6))
        k.attach()
        return k

    def test_change_lazy_migration_counts(self, tmp_path, kind):
        keys = list(range(1, 101))
        pool = self.build_v1(tmp_path, kind, keys)
        k2 = self.reattach_v2(pool, kind, "change")
        before = pool.stats.snapshot()
        with pool.tx_begin() as tx:
            assert k2.remove(tx, 50)
        d = pool.stats.delta(before)
        assert d["allocations"] == 1          # only the matched record upgrades
        assert d["ext_bytes"] == 40           # 24-byte record + 16-byte link store
        k2.validate()
        pool.close()

    def test_change_first_read_materializes_key64(self, tmp_path, kind):
        pool = self.build_v1(tmp_path, kind, [7])
        k2 = self.reattach_v2(pool, kind, "change")
        before = pool.stats.snapshot()
        assert k2.lookup(7) == 21
        assert pool.stats.delta(before)["allocations"] == 1
        # second access reuses the record
        before = pool.stats.snapshot()
        assert k2.lookup(7) == 21
        assert pool.stats.delta(before)["allocations"] == 0
        pool.close()

    def test_add_never_touches_old_nodes(self, tmp_path, kind):
        keys = list(range(1, 201))
        pool = self.build_v1(tmp_path, kind, keys)
        k2 = self.reattach_v2(pool, kind, "add")
        before = pool.stats.snapshot()
        for key in keys:
            with pool.tx_begin() as tx:
                assert k2.remove(tx, key)
        d = pool.stats.delta(before)
        assert d["allocations"] == 0          # oracle: allocation counter
        assert d["ext_bytes"] == 0
        assert k2.count() == 0
        pool.close()

    def test_change_equivalence_with_manual(self, tmp_path, kind):
        rng = random.Random(17)
        keys = rng.sample(range(1, 1_000_000), 400)
        ops = [("ins", key, key ^ 99) for key in keys]
        upd = [("del" if i % 3 else "ins", key, key ^ 7)
               for i, key in enumerate(keys)]

        # manual lane
        pm, km = fresh_kernel(tmp_path, kind, name="m", rng=random.Random(1))
        run_ops(pm, km, ops)
        run_migration(pm, make_manual_migrator(kind, "change"))
        km2 = make_kernel(pm, kind, version=2, change="change", rng=random.Random(2))
        km2.attach()
        for op in upd:
            with pm.tx_begin() as tx:
                km2.remove(tx, op[1]) if op[0] == "del" else km2.insert(tx, op[1], op[2])
        manual_view = dict(km2.scan())

        # auto lane
        pa = self.build_v1(tmp_path, kind, [])
        ka = make_kernel(pa, kind, mode="auto", version=1, rng=random.Random(1))
        ka.attach()
        run_ops(pa, ka, ops)
        ka2 = self.reattach_v2(pa, kind, "change")
        for op in upd:
            with pa.tx_begin() as tx:
                ka2.remove(tx, op[1]) if op[0] == "del" else ka2.insert(tx, op[1], op[2])
        auto_view = dict(ka2.scan())
        ka2.validate()

        # shadow lane
        shadow = {}
        for op in ops:
            shadow.setdefault(op[1], op[2])
        for op in upd:
            if op[0] == "del":
                shadow.pop(op[1], None)
            elif op[1] not in shadow:
                shadow[op[1]] = op[2]

        assert manual_view == shadow
        assert auto_view == shadow
        pm.close()
        pa.close()

    def test_auto_fuzz_validates(self, tmp_path, kind):
        pool = self.build_v1(tmp_path, kind, list(range(1, 50)))
        k2 = self.reattach_v2(pool, kind, "change")
        rng = random.Random(0xFEED)
        shadow = {key: key * 3 for key in range(1, 50)}
        for _ in range(400):
            key = rng.randrange(1, 120)
            with pool.tx_begin() as tx:
                if key in shadow:
                    assert k2.remove(tx, key)
                    del shadow[key]
                else:
                    assert k2.insert(tx, key, key)
                    shadow[key] = key
        k2.validate()
        assert dict(k2.scan()) == shadow
        pool.close()


def level_walk(pool, k):
    """Reference skip-list index: each of the four levels walked on its own
    from the head, one field load at a time. Returns ({key: node id},
    {key: height}, the key list of each level)."""
    from ledstore.layout import ObjectId

    u, o, _ = pool.read(pool.root_id, k.ROOT)
    key_field = k.entry.field("key")
    by_key, height, levels = {}, {}, []
    for level in range(4):
        next_off = k.entry.offsets[f"next{level}"]
        keys, cur = [], ObjectId.unpack(pool.load(ObjectId(u, o), next_off, 16))
        while not cur.is_null():
            key = key_field.decode(pool.load(cur, key_field.offset, key_field.size))
            keys.append(key)
            if level == 0:
                by_key[key] = cur
            height[key] = level + 1
            cur = ObjectId.unpack(pool.load(cur, next_off, 16))
        levels.append(keys)
    return by_key, height, levels


def skiplist_pool(tmp_path, lane, seed, n=300):
    """A version-1 skip list of `lane` after random inserts and removes."""
    pool = create_pool(str(tmp_path / f"s-{lane}-{seed}.pool"), "skiplist-v1", 32 * MIB)
    k = make_kernel(pool, "skiplist", mode=lane, rng=random.Random(seed))
    k.create()
    rng = random.Random(seed)
    keys = rng.sample(range(1, 1 << 30), n)
    run_ops(pool, k, [("ins", key, key) for key in keys])
    run_ops(pool, k, [("del", key) for key in rng.sample(keys, n // 3)])
    return pool


SKIPLIST_LANES = [("manual", 1, "change"), ("auto", 2, "change")]


def index_levels(k):
    """The kernel's volatile index in level_walk's terms: each level's keys
    are those of `keys` whose height is above the level."""
    return k.by_key, k.height, [[key for key in k.keys if k.height[key] > level]
                                for level in range(4)]


class TestSkipListAttach:
    """Attach rebuilds the volatile index in one walk of level 0."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("lane", range(len(SKIPLIST_LANES)), ids=["manual", "auto"])
    def test_index_equals_a_walk_of_every_level(self, tmp_path, lane, seed):
        mode, version, change = SKIPLIST_LANES[lane]
        pool = skiplist_pool(tmp_path, mode, seed)
        k = make_kernel(pool, "skiplist", mode=mode, version=version, change=change)
        k.attach()
        by_key, height, levels = level_walk(pool, k)
        assert levels[3] and len(levels[0]) == k.count() == 200
        assert index_levels(k) == (by_key, height, levels)
        assert list(k.by_key) == levels[0]  # in list order
        k.validate()
        pool.close()

    @pytest.mark.parametrize("seed", [4, 5])
    def test_index_of_a_migrated_pool(self, tmp_path, seed):
        pool = skiplist_pool(tmp_path, "manual", seed)
        before = level_walk(pool, make_kernel(pool, "skiplist"))
        run_migration(pool, make_manual_migrator("skiplist", "change"))
        k = make_kernel(pool, "skiplist", version=2, change="change")
        k.attach()
        by_key, height, levels = level_walk(pool, k)
        assert (height, levels) == before[1:]  # heights survive the migration
        assert index_levels(k) == (by_key, height, levels)
        k.validate()
        pool.close()

    @pytest.mark.parametrize("lane", range(len(SKIPLIST_LANES)), ids=["manual", "auto"])
    def test_attach_makes_count_plus_two_translations(self, tmp_path, lane):
        mode, version, change = SKIPLIST_LANES[lane]
        pool = skiplist_pool(tmp_path, mode, 6)
        k = make_kernel(pool, "skiplist", mode=mode, version=version, change=change)
        before = pool.stats.translations
        k.attach()
        assert pool.stats.translations - before == k.count() + 2  # root, head, each node
        pool.close()

    @staticmethod
    def _corrupt_level2(pool, backward):
        """Point the last level-2 member's next[2] at a node off level 2: one
        after it that is on level 0 only, or (`backward`) one before it that
        is not on level 2. The target's own next[2] is null, so a walk of
        level 2 alone ends."""
        from ledstore.layout import NULL_OID

        k = make_kernel(pool, "skiplist")
        by_key, height, levels = level_walk(pool, k)
        last = levels[2][-1]
        if backward:
            target = next(key for key in levels[0] if key < last and height[key] == 2)
        else:
            target = next(key for key in levels[0] if key > last and height[key] == 1)
        assert pool.load(by_key[target], k.entry.offsets["next2"], 16) == NULL_OID.pack()
        pool.store(by_key[last], k.entry.offsets["next2"], by_key[target].pack())

    @pytest.mark.parametrize("backward", [False, True], ids=["off-level-1", "backward"])
    def test_upper_link_that_level_0_does_not_reach_refused(self, tmp_path, backward):
        from ledstore import OutOfBounds

        pool = skiplist_pool(tmp_path, "manual", 7)
        self._corrupt_level2(pool, backward)
        with pytest.raises(OutOfBounds, match="level 2"):
            make_kernel(pool, "skiplist").attach()
        pool.close()

    def test_level0_cycle_refused(self, tmp_path, monkeypatch):
        """The last node's next[0] names the first: attach reads count + 1
        nodes at most, then raises OutOfBounds (the read cap turns an
        endless walk into a failure)."""
        from ledstore import OutOfBounds
        from ledstore.pool import PoolHandle

        pool = skiplist_pool(tmp_path, "manual", 8)
        k = make_kernel(pool, "skiplist")
        by_key, _, levels = level_walk(pool, k)
        pool.store(by_key[levels[0][-1]], k.entry.offsets["next0"], by_key[levels[0][0]].pack())
        count, reads = len(levels[0]), []
        real_read = PoolHandle.read

        def read(self, oid, codec, off=0):
            reads.append(oid)
            assert len(reads) <= 2 * count, "attach walks on"
            return real_read(self, oid, codec, off)

        monkeypatch.setattr(PoolHandle, "read", read)
        with pytest.raises(OutOfBounds, match="more than count"):
            make_kernel(pool, "skiplist").attach()
        assert len(reads) == count + 3  # the root, the head, count + 1 nodes
        monkeypatch.undo()
        pool.close()


@pytest.mark.parametrize("first", ["lookup", "insert", "remove", "validate"])
@pytest.mark.parametrize("lane", range(len(SKIPLIST_LANES)), ids=["manual", "auto"])
def test_skiplist_index_follows_an_aborted_transaction(tmp_path, lane, first):
    """A transaction that inserts one key and removes another, then fails,
    rolls the records back; the volatile index follows them, rebuilt by
    whichever call comes `first` after the abort."""
    mode, version, change = SKIPLIST_LANES[lane]
    pool = create_pool(str(tmp_path / "s.pool"), "skiplist-v1", 32 * MIB)
    make_kernel(pool, "skiplist", mode=mode).create()
    k = make_kernel(pool, "skiplist", mode=mode, version=version, change=change,
                    rng=random.Random(1))
    k.attach()
    run_ops(pool, k, [("ins", key, 10 * key) for key in range(1, 20)])
    with pytest.raises(RuntimeError), pool.tx_begin() as tx:
        assert k.insert(tx, 100, 1000)
        assert k.remove(tx, 3)
        raise RuntimeError("fail after both ops")
    later = [("ins", 100, 1000), ("del", 3)]  # the index serves later ops
    if first == "lookup":
        assert (k.lookup(100), k.lookup(3)) == (None, 30)
    elif first == "validate":
        k.validate()
    else:
        op = later.pop(first == "remove")
        with pool.tx_begin() as tx:  # true only if the index has the rolled-back keys
            assert k.insert(tx, *op[1:]) if first == "insert" else k.remove(tx, op[1])
    k.validate()
    assert index_levels(k) == level_walk(pool, k)
    run_ops(pool, k, later)
    assert (k.lookup(100), k.lookup(3), k.count()) == (1000, None, 19)
    k.validate()
    pool.close()


@pytest.mark.parametrize("kind", ["skiplist", "ctree", "hashmap"])
def test_migrate_reads_each_old_node_once(tmp_path, monkeypatch, kind):
    """A manual migration resolves every old node once: its translations
    are one per old node and one per tx.write, plus one for the pool root,
    at any size."""
    from ledstore.pool import PoolHandle
    from ledstore.txn import Transaction

    constants = set()
    for n in (100, 300):
        pool, k = fresh_kernel(tmp_path, kind, name=f"m{n}", rng=random.Random(3))
        run_ops(pool, k, [("ins", key, key) for key in random.Random(n).sample(range(1, 1 << 30), n)])
        old = set(pool._live) - {pool.root_id.offset}  # every node, the skip list's head too
        resolved, writes = [], []
        real_resolve, real_write = PoolHandle._resolve, Transaction.write

        def resolve(self, oid, *range_):
            resolved.append(oid.offset)
            return real_resolve(self, oid, *range_)

        def write(self, oid, off, data):
            writes.append(oid.offset)
            return real_write(self, oid, off, data)

        monkeypatch.setattr(PoolHandle, "_resolve", resolve)
        monkeypatch.setattr(Transaction, "write", write)
        before = pool.stats.translations
        run_migration(pool, make_manual_migrator(kind, "change"))
        monkeypatch.undo()
        assert sorted(off for off in resolved if off in old) == sorted(old)
        translations = pool.stats.translations - before
        assert translations == len(resolved)
        constants.add(translations - len(old) - len(writes))
        pool.close()
    assert constants == {1}  # the pool root's one read


class TestBTreeCopies:
    def test_shallow_toggle_reduces_deep_copies(self, tmp_path):
        rng = random.Random(4)
        keys = rng.sample(range(1, 1_000_000), 600)

        def run(shallow):
            pool = create_pool(str(tmp_path / f"b{shallow}.pool"), "b", 32 * MIB)
            k = make_kernel(pool, "btree", mode="auto", version=2, change="change",
                            shallow_copy=shallow)
            k.create()
            run_ops(pool, k, [("ins", key, key) for key in keys])
            run_ops(pool, k, [("del", key) for key in keys[::2]])
            k.validate()
            counters = pool.stats.snapshot()
            pool.close()
            return counters

        deep = run(False)
        shallow = run(True)
        assert deep["deep_copies"] > 0
        assert shallow["deep_copies"] == 0
        assert shallow["n_allocs"] < deep["n_allocs"]  # oracle: paired runs


@pytest.mark.parametrize("items", [100, -3])
@pytest.mark.parametrize("op", ["lookup", "insert", "remove", "scan", "validate", "migrate"])
def test_btree_item_count_outside_bounds_refused(tmp_path, op, items):
    """A B-tree node whose item count on file lies outside [0, MAX_KEYS]
    fails with OutOfBounds wherever it is read, before any use of it; the
    manual migration pass aborts, leaving the pool at layout version 1."""
    import struct

    from ledstore import OutOfBounds
    from ledstore.kernels.btree import MAX_KEYS

    pool, k = fresh_kernel(tmp_path, "btree", rng=random.Random(3))
    keys = random.Random(8).sample(range(1, 1 << 20), 60)
    run_ops(pool, k, [("ins", key, key) for key in keys])
    troot = k._begin()[0]
    assert 0 < pool.read(troot, struct.Struct("<i"))[0] <= MAX_KEYS  # an inner root
    pool.store(troot, 0, struct.pack("<i", items))
    with pytest.raises(OutOfBounds, match=f"holds {items} items"):
        if op == "lookup":
            k.lookup(keys[0])
        elif op == "scan":
            list(k.scan())
        elif op == "validate":
            k.validate()
        elif op == "migrate":
            run_migration(pool, make_manual_migrator("btree", "change"))
        else:
            with pool.tx_begin() as tx:
                k.insert(tx, 7, 7) if op == "insert" else k.remove(tx, keys[0])
    assert pool.layout_version == 1
    pool.close()


@pytest.mark.parametrize("kind", KINDS)
def test_forged_key64_refused(tmp_path, kind):
    """In the auto "change" lane a materialized key64 that differs from the
    entry's key is OutOfBounds on lookup (and on validate, where a kernel
    checks key64), also under python -O."""
    from ledstore import OutOfBounds

    pool, k = auto_kernel(tmp_path, kind)
    key = 0x12345678
    run_ops(pool, k, [("ins", key, 0x0102030405060708)])  # materializes key64
    heap = pool.buf[pool.blocks_offset : pool.capacity]
    at = heap.find(key.to_bytes(8, "little"))
    assert at >= 0 and heap.find(key.to_bytes(8, "little"), at + 1) == -1
    pool.buf[pool.blocks_offset + at] ^= 1  # key64 now reads key ^ 1
    with pytest.raises(OutOfBounds, match="key64"):
        k.lookup(key)
    if kind in ("btree", "ctree", "hashmap"):
        with pytest.raises(OutOfBounds, match="key64"):
            k.validate()
    pool.close()


@pytest.mark.parametrize("mode", ["manual", "auto"])
def test_btree_logs_no_overlapping_snapshots(tmp_path, monkeypatch, mode):
    """In the B-tree's manual lane and version-1 auto lane, no transaction
    logs two SNAP records whose ranges overlap: each operation stores each
    changed node span once."""
    from ledstore.txn import Transaction

    pool, k = fresh_kernel(tmp_path, "btree", mode=mode, rng=random.Random(3))
    rng = random.Random(12)
    keys = rng.sample(range(1, 1 << 30), 600)
    snaps: dict[int, list[tuple[int, int]]] = {}  # transaction number -> ranges
    real_snap = Transaction._snap

    def snap(self, addr, length):
        snaps.setdefault(self._seq, []).append((addr, addr + length))
        return real_snap(self, addr, length)

    monkeypatch.setattr(Transaction, "_snap", snap)
    run_ops(pool, k, [("ins", key, key) for key in keys])
    run_ops(pool, k, [("del", key) for key in rng.sample(keys, 400)])
    monkeypatch.undo()
    k.validate()
    assert sum(map(len, snaps.values())) > 1000
    for ranges in snaps.values():
        ranges.sort()
        assert all(end <= start for (_, end), (start, _) in zip(ranges, ranges[1:])), ranges
    pool.close()
