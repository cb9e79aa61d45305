"""WAL durability and replay-idempotence contracts.

The load-bearing claims under test: an acknowledged delta survives any
crash (fsync-before-ack), a torn tail is repaired and never invents
history, interior corruption refuses to replay, a record's position
payload is covered by its CRC, a cut leaves a gap-free chain, and
applying the same WAL segment twice is a no-op, including after a
crash between applying a record and the next save; and a segment based
on an anchor carries the folded records' commit point in a header
under its own CRC, followed by the records still pending.
"""

import json

import numpy as np
import pytest

from repro.errors import WalError
from repro.graph import GraphDelta
from repro.runtime.chaos import truncate_wal_tail
from repro.serve.wal import DeltaWAL, WalRecord, plan_replay
from test_differential_solvers import _random_graph


@pytest.fixture()
def wal(tmp_path):
    return DeltaWAL(tmp_path / "wal")


def _chain(graph, deltas):
    """Apply ``deltas`` in sequence; returns [(delta, parent, after)]."""
    out = []
    current = graph
    for delta in deltas:
        parent = current.structural_fingerprint()
        current = delta.apply(current).after
        out.append((delta, parent, current.structural_fingerprint()))
    return out


@pytest.fixture(scope="module")
def graph():
    return _random_graph(11, 60, 200)


@pytest.fixture(scope="module")
def chain(graph):
    return _chain(graph, [
        GraphDelta([(0, 5), (2, 9)], []),
        GraphDelta([(3, 11)], [(0, 5)]),
        GraphDelta([(4, 13)], []),
    ])


def _fill(wal, chain):
    return [
        wal.append(delta, parent=parent, after=after)
        for delta, parent, after in chain
    ]


def test_append_recover_round_trip(wal, chain):
    appended = _fill(wal, chain)
    assert [r.seq for r in appended] == [1, 2, 3]
    records, dropped = wal.recover()
    assert dropped == 0
    assert len(records) == 3
    for got, (delta, parent, after) in zip(records, chain):
        assert got.parent == parent
        assert got.after == after
        assert [tuple(map(int, e)) for e in got.delta().insertions] == [
            tuple(map(int, e)) for e in delta.insertions
        ]


def test_seq_continues_across_reopen(wal, chain):
    _fill(wal, chain[:2])
    reopened = DeltaWAL(wal.directory)
    delta, parent, after = chain[2]
    record = reopened.append(delta, parent=parent, after=after)
    assert record.seq == 3


def test_replay_plan_full_and_empty(graph, chain):
    records = [
        WalRecord(i + 1, parent, after,
                  list(delta.insertions), list(delta.deletions))
        for i, (delta, parent, after) in enumerate(chain)
    ]
    base = graph.structural_fingerprint()
    # snapshot at the base: everything replays
    assert [r.seq for r in plan_replay(records, base)] == [1, 2, 3]
    # snapshot at the final record: double-apply is a no-op
    assert plan_replay(records, records[-1].after) == []
    # snapshot mid-chain (crash after applying the first record): the
    # applied prefix is skipped by fingerprint
    assert [r.seq for r in plan_replay(records, records[0].after)] == [2, 3]


def test_replay_plan_rejects_divergent_history(chain):
    records = [
        WalRecord(i + 1, parent, after,
                  list(delta.insertions), list(delta.deletions))
        for i, (delta, parent, after) in enumerate(chain)
    ]
    with pytest.raises(WalError, match="different history"):
        plan_replay(records, "g:not-in-this-chain")
    broken = [records[0], records[2]]
    with pytest.raises(WalError, match="chain broken"):
        plan_replay(broken, records[0].parent)


def test_replay_plan_places_a_snapshot_by_its_seq(graph):
    """A graph that recurs in the chain (an edge inserted, then
    deleted) has one fingerprint at seq 0 and seq 2; the snapshot's seq
    tells the two apart, where its fingerprint alone picks seq 0."""
    edge = next(
        (u, v) for u in range(graph.num_nodes)
        for v in range(graph.num_nodes)
        if u != v and not graph.has_edge(u, v)
    )
    base = graph.structural_fingerprint()
    inserted = GraphDelta(insertions=[edge]).apply(graph).after
    middle = inserted.structural_fingerprint()
    records = [
        WalRecord(1, base, middle, [edge], []),
        WalRecord(2, middle, base, [], [edge]),
    ]
    assert [r.seq for r in plan_replay(records, base)] == [1, 2]
    assert [r.seq for r in plan_replay(records, base, 0)] == [1, 2]
    assert [r.seq for r in plan_replay(records, middle, 1)] == [2]
    assert plan_replay(records, base, 2) == []
    # a seq whose record ends elsewhere, or that the chain lacks
    for fingerprint, seq in ((base, 1), (middle, 2), (base, 3), (base, -1)):
        with pytest.raises(WalError, match="different history"):
            plan_replay(records, fingerprint, seq)


def test_torn_tail_is_truncated_and_never_invents_records(wal, chain):
    _fill(wal, chain)
    intact = wal.segment_path.read_bytes()
    truncate_wal_tail(wal.segment_path, 9)
    records, dropped = wal.recover()
    assert [r.seq for r in records] == [1, 2]
    assert dropped > 0
    # the file itself was repaired back to the last good record
    first_two = b"".join(intact.splitlines(keepends=True)[:2])
    assert wal.segment_path.read_bytes() == first_two
    # idempotent: a second recovery sees a clean log
    records2, dropped2 = wal.recover()
    assert [r.seq for r in records2] == [1, 2]
    assert dropped2 == 0


def test_interior_corruption_refuses_to_replay(wal, chain):
    _fill(wal, chain)
    lines = wal.segment_path.read_bytes().splitlines(keepends=True)
    lines[1] = b'{"seq":2,"garbage":true}\n'
    wal.segment_path.write_bytes(b"".join(lines))
    with pytest.raises(WalError, match="corrupt record"):
        wal.recover()


def test_crc_catches_bit_flip(wal, chain):
    _fill(wal, chain[:1])
    raw = wal.segment_path.read_bytes()
    flipped = raw.replace(b'"ins":[[0,5]', b'"ins":[[0,6]')
    assert flipped != raw
    wal.segment_path.write_bytes(flipped)
    records, dropped = wal.recover()
    assert records == [] and dropped > 0


def test_sequence_gap_refuses_to_replay(wal, chain):
    _fill(wal, chain)
    lines = wal.segment_path.read_bytes().splitlines(keepends=True)
    wal.segment_path.write_bytes(lines[0] + lines[2])
    with pytest.raises(WalError, match="sequence gap"):
        wal.recover()


def test_cut_drops_the_suffix_and_appends_reuse_its_seq(wal, chain):
    """A cut truncates the segment at a record boundary; the next
    append takes the first cut seq, so the log stays gap-free and its
    chain links as before."""
    _fill(wal, chain)
    first_two = b"".join(
        wal.segment_path.read_bytes().splitlines(keepends=True)[:2]
    )
    wal.cut(3)
    assert wal.segment_path.read_bytes() == first_two
    delta, parent, after = chain[2]
    assert wal.append(delta, parent=parent, after=after).seq == 3
    records, dropped = DeltaWAL(wal.directory).recover()
    assert dropped == 0 and [r.seq for r in records] == [1, 2, 3]
    assert plan_replay(records, chain[0][1]) == records
    # cutting from the first record empties the segment
    wal.cut(1)
    assert wal.segment_path.read_bytes() == b""
    delta, parent, after = chain[0]
    assert wal.append(delta, parent=parent, after=after).seq == 1


def test_position_round_trips_under_the_crc(wal, chain):
    """The optional position is stored in the record and covered by
    its CRC: a flipped byte in it makes the record a torn tail."""
    position = {"window": [0, 16], "ids": [3, 4], "flooded": False}
    delta, parent, after = chain[0]
    wal.append(delta, parent=parent, after=after, position=position)
    records, _ = DeltaWAL(wal.directory).recover()
    assert records[0].position == position
    raw = wal.segment_path.read_bytes()
    flipped = raw.replace(b'"ids":[3,4]', b'"ids":[3,5]')
    assert flipped != raw
    wal.segment_path.write_bytes(flipped)
    records, dropped = wal.recover()
    assert records == [] and dropped > 0


def test_fsync_off_still_round_trips(tmp_path, chain):
    wal = DeltaWAL(tmp_path / "wal", fsync=False)
    _fill(wal, chain)
    assert len(wal.recover()[0]) == 3


def test_records_are_plain_json_lines(wal, chain):
    _fill(wal, chain)
    for line in wal.segment_path.read_text().splitlines():
        record = json.loads(line)
        assert set(record) == {"seq", "parent", "after", "ins", "dels",
                               "crc"}
    # a record that carries a position adds exactly one key
    delta, parent, after = chain[0]
    wal.append(delta, parent=parent, after=after, position={"read": 0})
    last = json.loads(wal.segment_path.read_text().splitlines()[-1])
    assert set(last) == {"seq", "parent", "after", "ins", "dels", "pos",
                         "crc"}


def test_rebase_starts_a_segment_after_the_folded_records(wal, chain):
    """A rebase at seq 2 writes ``wal-<2>.jsonl``: a header carrying
    seq 2, its fingerprint, the newest folded position and the
    history's origin, then record 3 byte for byte; appends continue
    the seq there, and the first segment goes at drop_superseded."""
    for i, (delta, parent, after) in enumerate(chain):
        wal.append(delta, parent=parent, after=after,
                   position={"read": i} if i < 2 else None)
    third = wal.segment_path.read_bytes().splitlines(keepends=True)[2]
    with pytest.raises(WalError, match="no such record"):
        wal.rebase(2, chain[0][2])
    path = wal.rebase(2, chain[1][2])
    assert path.name == f"wal-{2:012d}.jsonl" == wal.segment_path.name
    assert wal.base_seq == 2
    lines = path.read_bytes().splitlines(keepends=True)
    assert lines[1:] == [third]
    reopened = DeltaWAL(wal.directory)
    records, dropped = reopened.recover()
    assert dropped == 0 and [r.seq for r in records] == [3]
    base = reopened.base
    assert (base.seq, base.after, base.origin, base.position) == (
        2, chain[1][2], chain[0][1], {"read": 1}
    )
    assert plan_replay(records, base.after) == records
    assert wal.drop_superseded() == 1
    assert sorted(p.name for p in wal.directory.iterdir()) == [path.name]
    # the cut keeps the header; the next append reuses the seq
    wal.cut(3)
    assert path.read_bytes() == lines[0]
    delta, parent, after = chain[2]
    assert wal.append(delta, parent=parent, after=after).seq == 3


def test_a_damaged_segment_header_refuses_to_replay(wal, chain):
    _fill(wal, chain)
    path = wal.rebase(3, chain[2][2])
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b'"base":3', b'"base":4'))
    with pytest.raises(WalError, match="header"):
        DeltaWAL(wal.directory).recover()


def test_an_empty_log_creates_no_file(tmp_path):
    """Constructing and recovering a log touch nothing on disk; only
    the first append creates the directory and the segment."""
    wal = DeltaWAL(tmp_path / "wal")
    assert wal.recover() == ([], 0)
    assert wal.recover(repair=False) == ([], 0)
    assert wal.base is None and wal.base_seq == 0
    assert not (tmp_path / "wal").exists()
