"""Log format round-trips and the enriched-column contract."""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowlink.correlate import AttributionResult, Candidate
from flowlink.flowlog import (
    EMPTY,
    ENRICH_FIELDS,
    FLOW_FIELDS,
    FLOW_FORMAT,
    INPUTS_BATCH,
    AlertWriter,
    DownloadEvent,
    EnrichedFlowWriter,
    FlowRecord,
    InputRecorder,
    LogFormatError,
    enrich_columns,
    read_alerts,
    read_enriched,
    read_flows,
    read_inputs,
    write_header,
)
from flowlink.model import FlowTuple, MatchQuality, Proto


def rec(uid="F1", proto=Proto.TCP):
    return FlowRecord(ts=100.5, uid=uid, orig_h="10.0.0.1", orig_p=4000,
                      resp_h="10.0.0.2", resp_p=443, proto=proto,
                      duration=1.25, orig_bytes=100, resp_bytes=2000,
                      orig_pkts=4, resp_pkts=6)


def result_for(record, cands=()):
    return AttributionResult(flow=record.flow_tuple(), flow_start=record.ts,
                             flow_end=record.end, originator=tuple(cands))


def flow_log(records) -> str:
    buf = io.StringIO()
    write_header(buf, FLOW_FORMAT, FLOW_FIELDS)
    for r in records:
        buf.write("\t".join(r.to_row()) + "\n")
    return buf.getvalue()


def test_flow_log_roundtrip():
    records = [rec("F1"), rec("F2", proto=Proto.UDP)]
    assert list(read_flows(iter(flow_log(records).splitlines(True)))) == records


def test_flow_header_is_versioned():
    first, second = flow_log([]).splitlines()
    assert first == "#flowlink flow-log v1"
    assert second.startswith("#fields\tts\tuid")


def test_reader_rejects_wrong_format():
    buf = io.StringIO()
    AlertWriter(buf)
    with pytest.raises(LogFormatError):
        list(read_flows(iter(buf.getvalue().splitlines(True))))
    with pytest.raises(LogFormatError):
        list(read_flows(iter([])))


@pytest.mark.parametrize("ts, duration", [("nan", "0.5"), ("5.0", "inf")])
def test_reader_rejects_non_finite_times(ts, duration):
    line = "\t".join([ts, "F1", "10.0.0.1", "1", "10.0.0.2", "2", "tcp",
                      duration, "0", "0", "0", "0"])
    lines = flow_log([]).splitlines(True) + [line + "\n"]
    with pytest.raises(LogFormatError, match="finite"):
        list(read_flows(iter(lines)))


flow_records = st.builds(
    FlowRecord,
    ts=st.floats(0, 1e6).map(lambda x: round(x, 6)),
    uid=st.from_regex(r"F[0-9a-f]{6}", fullmatch=True),
    orig_h=st.sampled_from(["10.0.0.1", "192.168.1.9", "2001:db8::1"]),
    orig_p=st.integers(0, 65535),
    resp_h=st.sampled_from(["10.0.0.2", "203.0.113.7"]),
    resp_p=st.integers(0, 65535),
    proto=st.sampled_from([Proto.TCP, Proto.UDP, Proto.ICMP]),
    duration=st.floats(0, 1e4).map(lambda x: round(x, 6)),
    orig_bytes=st.integers(0, 1 << 40),
    resp_bytes=st.integers(0, 1 << 40),
    orig_pkts=st.integers(0, 1 << 20),
    resp_pkts=st.integers(0, 1 << 20),
)


@given(flow_records)
def test_flow_record_line_roundtrip(record):
    (got,) = list(read_flows(iter(flow_log([record]).splitlines(True))))
    assert got == record


@given(flow_records)
def test_flow_record_dict_roundtrip(record):
    assert FlowRecord.from_dict(record.to_dict()) == record


def test_enriched_columns_unique():
    r = rec()
    cands = [Candidate(host="h1", pid=100, binary_path="/usr/bin/curl",
                       uid=1000, user_name="alice")]
    cols = enrich_columns(result_for(r, cands))
    assert cols == ["h1", "100", "/usr/bin/curl", "alice", "unique"]


def test_enriched_columns_vague_sorted_joined():
    r = rec()
    cands = [Candidate(host="h2", pid=200, binary_path="/bin/b", uid=0,
                       user_name="root"),
             Candidate(host="h1", pid=100, binary_path="/bin/a", uid=1001,
                       user_name="")]
    cols = enrich_columns(result_for(r, cands))
    assert cols == ["h1,h2", "100,200", "/bin/a,/bin/b", "1001,root", "vague"]


def test_enriched_columns_unattributed():
    cols = enrich_columns(result_for(rec()))
    assert cols == [EMPTY, EMPTY, EMPTY, EMPTY, "unattributed"]


def test_enriched_writer_appends_exact_columns():
    buf = io.StringIO()
    w = EnrichedFlowWriter(buf)
    r = rec()
    w.write(r, result_for(r, [Candidate(host="h1", pid=100,
                                        binary_path="/bin/sh", uid=0,
                                        user_name="root")]))
    lines = buf.getvalue().splitlines()
    assert lines[1].split("\t")[1:] == list(ENRICH_FIELDS)
    (row,) = list(read_enriched(iter(buf.getvalue().splitlines(True))))
    assert row["orig_host"] == "h1" and row["status"] == "unique"
    assert row["uid"] == "F1" and row["duration"] == "1.250000"


def test_alert_log_roundtrip():
    buf = io.StringIO()
    w = AlertWriter(buf)
    alerts = [{"kind": "stepping_stone", "hosts": ["h2"],
               "evidence": {"in_pid": 5}, "raised_at": 9.5},
              {"kind": "attachment_executed", "hosts": ["h1"],
               "evidence": {"sha256": "ab"}, "raised_at": 10.0}]
    for a in alerts:
        w.write(a)
    assert list(read_alerts(iter(buf.getvalue().splitlines(True)))) == alerts


def test_download_event_dict_roundtrip():
    ev = DownloadEvent(ts=5.0, sha256="e3b0" * 16,
                       flow=FlowTuple("10.0.0.1", 4000, "203.0.113.9", 443,
                                      Proto.TCP),
                       flow_uid="F9", origin_kind="mail_attachment")
    assert DownloadEvent.from_dict(ev.to_dict()) == ev


def test_input_recorder_roundtrip():
    buf = io.StringIO()
    recorder = InputRecorder(buf)
    recorder.record(1.5, "flow", {"uid": "F1"})
    recorder.record(2.0, "event", {"x": 1}, topic="node/engine")
    entries = list(read_inputs(iter(buf.getvalue().splitlines(True))))
    assert entries == [{"t": 1.5, "kind": "flow", "data": {"uid": "F1"}},
                       {"t": 2.0, "kind": "event", "data": {"x": 1},
                        "topic": "node/engine"}]


def _inputs_lines(n: int, blank_every: int = 0) -> list[str]:
    """An `inputs v1` log of `n` entries, a blank line after every
    `blank_every`-th one if that is set."""
    lines = ["#flowlink inputs v1\n"]
    for i in range(n):
        lines.append(f'{{"t": {i * 0.5}, "kind": "flow", "data": {{"uid": "F{i}", '
                     f'"vals": [{i}, "x", null, {{"k": true}}]}}}}\n')
        if blank_every and i % blank_every == blank_every - 1:
            lines.append("   \n")
    return lines


def test_batched_inputs_equal_per_line_parsing():
    lines = _inputs_lines(2 * INPUTS_BATCH + 17, blank_every=7)
    per_line = [json.loads(line) for line in lines[1:] if line.strip()]
    assert list(read_inputs(iter(lines))) == per_line
    # lines without their newline, as `splitlines()` gives them
    bare = [line.rstrip("\n") for line in lines]
    assert list(read_inputs(iter(bare))) == per_line


@pytest.mark.parametrize("bad, cause", [
    ("{bad json\n", "Expecting property name"),
    ('{"t": 1.0}, {"t": 2.0}\n', "Extra data"),
    ('{"t": 1.0, "kind": "flow", "data": [1,\n', "Expecting value"),
    ('2]\n', "Extra data"),
])
def test_inputs_name_the_bad_line_inside_a_batch(bad, cause):
    lines = _inputs_lines(INPUTS_BATCH + 500, blank_every=10)
    pos = INPUTS_BATCH + 300           # inside the second batch
    lines[pos] = bad
    got = []
    with pytest.raises(LogFormatError, match=f"inputs line {pos + 1}: {cause}"):
        for entry in read_inputs(iter(lines)):
            got.append(entry)
    assert got == [json.loads(line) for line in lines[1:pos] if line.strip()]


def test_a_value_split_over_two_lines_is_refused():
    """Each line must parse on its own: a value opened on one line and
    closed on the next is no entry, although the batch parses."""
    lines = _inputs_lines(10)
    lines[4:6] = ["[1\n", "2]\n"]
    with pytest.raises(LogFormatError, match="inputs line 5"):
        list(read_inputs(iter(lines)))


def test_a_split_value_is_refused_when_another_line_makes_up_the_count():
    """`[1`, `2]` and `3, 4` parse as a batch to as many values as lines,
    but not every value is an entry object."""
    lines = _inputs_lines(10)
    lines[4:7] = ["[1\n", "2]\n", "3, 4\n"]
    with pytest.raises(LogFormatError, match="inputs line 5"):
        list(read_inputs(iter(lines)))
