"""Exact-shape persistence for the Merkle B+-tree.

Root digests commit to the *tree shape*, not just the entry set: two
trees holding the same entries but built in different orders hash
differently.  A client's persisted trust anchor (its root digest) must
therefore survive a server restart bit-for-bit, which means persistence
has to serialise the structure, not rebuild from entries.

The format is line-oriented with length prefixes (same conventions as
the RCS store serialisation): a preorder walk writing, per node, its
kind, key count, and for leaves the base64 values.  Keys and values are
binary-safe via urlsafe base64.
"""

from __future__ import annotations

import base64

from repro.mtree.bplus import BPlusTree, InternalNode, LeafNode
from repro.mtree.database import VerifiedDatabase
from repro.mtree.forest import MerkleForest
from repro.mtree.merkle import MerkleBPlusTree


class PersistenceError(Exception):
    """Raised on malformed snapshots."""


def dump_tree(tree: BPlusTree) -> bytes:
    """Serialise a B+-tree preserving its exact shape.

    The single-blob view of :func:`iter_tree_stream`: both streams'
    lines interleaved in walk order (a leaf's entries follow its line).
    """
    return ("\n".join(line for _stream, line in iter_tree_stream(tree))
            + "\n").encode("ascii")


def iter_tree_stream(tree: BPlusTree):
    """Stream a tree's exact shape as ``(stream, line)`` pairs.

    A preorder walk split into two line streams so the page engine can
    persist them separately (:func:`dump_tree` interleaves them):

    * ``"nodes"`` -- the header plus per-node structure lines (kind,
      key count, internal separator keys);
    * ``"entries"`` -- the leaf key/value lines, in leaf order.

    :func:`load_tree_stream` consumes the two streams back and yields
    the identical shape; memory stays bounded by the tree being built
    plus one line per stream.
    """
    yield "nodes", f"bplus-snapshot 1 {tree.order} {len(tree)}"
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            yield "nodes", f"leaf {len(node.keys)}"
            for key, value in zip(node.keys, node.values):
                yield "entries", f"{_b64(key)} {_b64(value)}"
        else:
            yield "nodes", f"internal {len(node.keys)}"
            yield "nodes", (" ".join(_b64(key) for key in node.keys)
                            if node.keys else "")
            stack.extend(reversed(node.children))


def load_tree_stream(nodes_lines, entries_lines) -> BPlusTree:
    """Reconstruct a tree from :func:`iter_tree_stream`'s two streams.

    ``nodes_lines`` and ``entries_lines`` are iterators of text lines;
    they are consumed incrementally (never materialised), so the caller
    can feed them page by page.
    """
    nodes_iter = iter(nodes_lines)
    entries_iter = iter(entries_lines)

    def next_line(source, what: str) -> str:
        try:
            return next(source)
        except StopIteration:
            raise PersistenceError(
                f"unexpected end of snapshot ({what} stream)") from None

    header = next_line(nodes_iter, "nodes").split(" ")
    if len(header) != 4 or header[0] != "bplus-snapshot" or header[1] != "1":
        raise PersistenceError("bad snapshot header")
    try:
        order, size = int(header[2]), int(header[3])
    except ValueError as exc:
        raise PersistenceError(f"bad snapshot header: {exc}") from exc
    if order < 3 or size < 0:
        raise PersistenceError("bad snapshot header: implausible order/size")
    tree = BPlusTree(order=order)

    def read_node():
        parts = next_line(nodes_iter, "nodes").split(" ")
        if parts[0] == "leaf":
            node = LeafNode()
            try:
                count = int(parts[1])
            except (IndexError, ValueError) as exc:
                raise PersistenceError(f"bad leaf line: {exc}") from exc
            for _ in range(count):
                key_text, _, value_text = \
                    next_line(entries_iter, "entries").partition(" ")
                node.keys.append(_unb64(key_text))
                node.values.append(_unb64(value_text))
                node.entry_digests.append(None)
            return node
        if parts[0] == "internal":
            node = InternalNode()
            try:
                key_count = int(parts[1])
            except (IndexError, ValueError) as exc:
                raise PersistenceError(f"bad internal line: {exc}") from exc
            key_line = next_line(nodes_iter, "nodes")
            if key_count:
                encoded = key_line.split(" ")
                if len(encoded) != key_count:
                    raise PersistenceError("internal key count mismatch")
                node.keys = [_unb64(text) for text in encoded]
            elif key_line:
                raise PersistenceError("expected empty key line")
            for _ in range(key_count + 1):
                node.children.append(read_node())
            return node
        raise PersistenceError(f"unknown node kind {parts[0]!r}")

    root = read_node()
    for source, what in ((nodes_iter, "nodes"), (entries_iter, "entries")):
        try:
            next(source)
        except StopIteration:
            pass
        else:
            raise PersistenceError(f"trailing data in snapshot ({what} stream)")

    def count_entries(node) -> int:
        if node.is_leaf:
            return len(node.keys)
        return sum(count_entries(child) for child in node.children)

    actual = count_entries(root)
    if actual != size:
        raise PersistenceError(
            f"snapshot header claims {size} entries but the nodes hold {actual}")
    tree._root = root
    tree._size = size
    _relink_leaves(tree)
    try:
        tree.check_invariants()
    except AssertionError as exc:
        raise PersistenceError(f"snapshot violates tree invariants: {exc}") from exc
    return tree


def load_tree(blob: bytes) -> BPlusTree:
    """Reconstruct a tree serialised by :func:`dump_tree`.

    One line iterator feeds both of :func:`load_tree_stream`'s streams:
    the walk reads each leaf's entries right after its node line,
    exactly where :func:`dump_tree` put them.
    """
    try:
        lines = blob.decode("ascii").split("\n")
    except UnicodeDecodeError as exc:
        raise PersistenceError(f"snapshot is not ascii: {exc}") from exc
    if lines and lines[-1] == "":
        lines.pop()
    source = iter(lines)
    return load_tree_stream(source, source)


def _relink_leaves(tree: BPlusTree) -> None:
    """Rebuild the leaf chain (next_leaf pointers) after a load."""
    leaves: list[LeafNode] = []

    def collect(node) -> None:
        if node.is_leaf:
            leaves.append(node)
        else:
            for child in node.children:
                collect(child)

    collect(tree.root)
    for left, right in zip(leaves, leaves[1:]):
        left.next_leaf = right
    if leaves:
        leaves[-1].next_leaf = None


def dump_forest(forest: MerkleForest) -> bytes:
    """Serialise a Merkle forest: header plus one shard dump per shard.

    Only the shard trees are serialised.  The top tree's shape is a
    deterministic function of the shard count (keys inserted in
    ascending order, then only overwritten), so a load rebuilds it and
    the top root matches the dumped forest bit-for-bit.
    """
    spec = forest.spec
    header = (f"forest-snapshot 1 {spec.order} {spec.top_order} "
              f"{spec.shards}\n").encode("ascii")
    parts = [header]
    for index in range(spec.shards):
        shard_blob = dump_tree(forest.shard_tree(index).tree)
        parts.append(f"shard {index} {len(shard_blob)}\n".encode("ascii"))
        parts.append(shard_blob)
    return b"".join(parts)


def load_forest(blob: bytes) -> MerkleForest:
    """Reconstruct a forest serialised by :func:`dump_forest`."""
    newline = blob.find(b"\n")
    if newline < 0:
        raise PersistenceError("truncated forest snapshot: no header line")
    header = blob[:newline].decode("ascii", errors="replace").split(" ")
    if len(header) != 5 or header[0] != "forest-snapshot" or header[1] != "1":
        raise PersistenceError("bad forest snapshot header")
    try:
        order, top_order, shards = int(header[2]), int(header[3]), int(header[4])
    except ValueError as exc:
        raise PersistenceError(f"bad forest snapshot header: {exc}") from exc
    if order < 3 or top_order < 3 or shards < 1:
        raise PersistenceError(
            "bad forest snapshot header: implausible order/shard count")

    forest = MerkleForest(order=order, shards=shards, top_order=top_order)
    position = newline + 1
    for expected_index in range(shards):
        line_end = blob.find(b"\n", position)
        if line_end < 0:
            raise PersistenceError(
                f"truncated forest snapshot: expected {shards} shard "
                f"sections, found {expected_index}")
        fields = blob[position:line_end].decode("ascii", errors="replace").split(" ")
        if len(fields) != 3 or fields[0] != "shard":
            raise PersistenceError("bad shard section header")
        try:
            index, size = int(fields[1]), int(fields[2])
        except ValueError as exc:
            raise PersistenceError(f"bad shard section header: {exc}") from exc
        if index != expected_index:
            raise PersistenceError(
                f"shard sections out of order: expected {expected_index}, "
                f"found {index}")
        position = line_end + 1
        if position + size > len(blob):
            raise PersistenceError(
                f"truncated forest snapshot: shard {index} section cut short")
        tree = load_tree(blob[position:position + size])
        if tree.order != order:
            raise PersistenceError(
                f"shard {index} order {tree.order} disagrees with the "
                f"forest header order {order}")
        position += size
        mtree = MerkleBPlusTree(order=order)
        mtree._tree = tree
        forest._shards[index] = mtree
        forest._dirty.add(index)
    if position != len(blob):
        raise PersistenceError("trailing data in forest snapshot")
    # Fold the restored shard roots into the deterministically shaped
    # top tree; the routing invariant rides along for free.
    forest._sync_top()
    try:
        forest.check_invariants()
    except AssertionError as exc:
        raise PersistenceError(f"snapshot violates forest invariants: {exc}") from exc
    return forest


def dump_database(database: VerifiedDatabase) -> bytes:
    """Snapshot a verified database (its Merkle store, shape included)."""
    mtree = database.mtree
    if isinstance(mtree, MerkleForest):
        return dump_forest(mtree)
    return dump_tree(mtree.tree)


def load_database(blob: bytes) -> VerifiedDatabase:
    """Restore a database; the root digest matches the one dumped.

    Dispatches on the snapshot header: plain ``bplus-snapshot`` blobs
    restore a single-tree store, ``forest-snapshot`` blobs a sharded
    one.
    """
    if blob.startswith(b"forest-snapshot "):
        forest = load_forest(blob)
        database = VerifiedDatabase(
            order=forest.order, shards=forest.shard_count,
            top_order=forest.top_order)
        database._mtree = forest
        return database
    tree = load_tree(blob)
    database = VerifiedDatabase(order=tree.order)
    mtree = MerkleBPlusTree(order=tree.order)
    mtree._tree = tree
    database._mtree = mtree
    return database


def _b64(data: bytes) -> str:
    return base64.urlsafe_b64encode(data).decode("ascii")


def _unb64(text: str) -> bytes:
    try:
        return base64.urlsafe_b64decode(text.encode("ascii"))
    except Exception as exc:  # noqa: BLE001
        raise PersistenceError("bad base64 field") from exc
