"""Flow-context detectors.

Both detectors work on engine-side knowledge only: attributed flows, wire
download observations, and answers to the one-time host queries they issue
through a pluggable publish/retract pair.  `AttachmentDetector` flags
execution of a binary whose content hash arrived over the network;
`SteppingStoneDetector` flags hosts relaying one inbound SSH session into a
new outbound one via the process tree.
"""

from __future__ import annotations

import bisect
import collections
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Optional

from .correlate import AttributionResult
from .flowlog import DownloadEvent, FlowRecord
from .model import ProcessInfo, Proto, SnapshotBatch

ATTACHMENT_EXECUTED = "attachment_executed"
STEPPING_STONE = "stepping_stone"

SSH_PORT = 22


@dataclass(frozen=True)
class Alert:
    """Identity is the kind plus a digest of the evidence, so re-deriving the
    same conclusion from replayed inputs never duplicates an alert."""

    kind: str
    ts: float
    host: str
    summary: str
    evidence: dict

    @property
    def identity(self) -> tuple[str, str]:
        digest = hashlib.sha256(
            json.dumps(self.evidence, sort_keys=True).encode()).hexdigest()
        return (self.kind, digest)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "ts": self.ts, "host": self.host,
                "summary": self.summary, "evidence": self.evidence}

    @classmethod
    def from_dict(cls, d: dict) -> "Alert":
        return cls(kind=d["kind"], ts=float(d["ts"]), host=d["host"],
                   summary=d["summary"], evidence=dict(d["evidence"]))


def _ts(ev: DownloadEvent) -> float:
    return ev.ts


class DownloadStore:
    """Recent wire-observed downloads, indexed by content hash.

    Entries age out after `retention` seconds; duplicate hashes keep every
    sighting and hand back the newest first.
    """

    def __init__(self, retention: float = 86400.0):
        self.retention = retention
        self._by_time: list[DownloadEvent] = []   # by ts; events have no order
        self._by_hash: dict[str, list[DownloadEvent]] = collections.defaultdict(list)

    def __len__(self) -> int:
        return len(self._by_time)

    def add(self, ev: DownloadEvent) -> None:
        bisect.insort(self._by_time, ev, key=_ts)
        self._by_hash[ev.sha256].append(ev)

    def prune(self, now: float) -> int:
        cutoff = now - self.retention
        idx = bisect.bisect_left(self._by_time, cutoff, key=_ts)
        expired, self._by_time = self._by_time[:idx], self._by_time[idx:]
        for ev in expired:
            sightings = self._by_hash[ev.sha256]
            sightings.remove(ev)
            if not sightings:
                del self._by_hash[ev.sha256]
        return len(expired)

    def by_hash(self, sha256: str, now: Optional[float] = None) -> list[DownloadEvent]:
        if now is not None:
            self.prune(now)
        return sorted(self._by_hash.get(sha256, ()), key=_ts, reverse=True)


def _flow_uid(result: AttributionResult) -> str:
    return result.tag.uid if isinstance(result.tag, FlowRecord) else ""


class _AlertDedup:
    def __init__(self, sink: Callable[[Alert], None],
                 counters: collections.Counter):
        self._sink = sink
        self._seen: set[tuple[str, str]] = set()
        self._counters = counters

    def emit(self, alert: Alert) -> bool:
        key = alert.identity
        if key in self._seen:
            self._counters["alerts_duplicate"] += 1
            return False
        self._seen.add(key)
        self._counters["alerts"] += 1
        self._sink(alert)
        return True


@dataclass
class _PendingHash:
    interest_id: str
    procs: list[ProcessInfo] = field(default_factory=list)


class AttachmentDetector:
    """Alert when a process executes a binary whose hash matches a recent
    download.

    Each audit-observed exec on a host with at least one live download record
    triggers a one-time `file_hash` query scoped to that host, unless the
    (host, path) hash is already cached.  Unanswered queries time out, are
    retracted, and only bump a counter.
    """

    def __init__(self, downloads: DownloadStore,
                 publish: Callable[[str, str], str],
                 retract: Callable[[str], None],
                 alert_sink: Callable[[Alert], None],
                 scheduler, query_timeout: float = 5.0):
        self.downloads = downloads
        self.publish = publish
        self.retract = retract
        self.scheduler = scheduler
        self.counters: collections.Counter = collections.Counter()
        self._dedup = _AlertDedup(alert_sink, self.counters)
        self._pending: dict[tuple[str, str], _PendingHash] = {}
        self._hash_cache: dict[tuple[str, str], str] = {}
        self.query_timeout = query_timeout

    def on_download(self, ev: DownloadEvent) -> None:
        self.downloads.add(ev)
        self.counters["downloads"] += 1

    def on_process_added(self, proc: ProcessInfo, now: float) -> None:
        self.downloads.prune(now)
        if not len(self.downloads):
            return
        key = (proc.host, proc.binary_path)
        cached = self._hash_cache.get(key)
        if cached is not None:
            self._check(proc, cached, now)
            return
        entry = self._pending.get(key)
        if entry is not None:
            entry.procs.append(proc)
            return
        # a literal cannot escape its quote: a path holding both is unqueryable
        quote = "'" if "'" not in proc.binary_path else '"'
        if quote in proc.binary_path:
            self.counters["unqueryable_paths"] += 1
            return
        iid = self.publish(
            f"file_hash WHERE path == {quote}{proc.binary_path}{quote}", proc.host)
        self._pending[key] = _PendingHash(interest_id=iid, procs=[proc])
        self.counters["hash_queries"] += 1
        self.scheduler.call_later(self.query_timeout, self._on_timeout, key, iid)

    def on_file_hash(self, batch: SnapshotBatch, now: float) -> None:
        for row in batch.rows:
            key = (batch.host, row.path)
            self._hash_cache[key] = row.sha256
            entry = self._pending.pop(key, None)
            if entry is None:
                continue
            self.retract(entry.interest_id)
            for proc in entry.procs:
                self._check(proc, row.sha256, now)

    def _on_timeout(self, key: tuple[str, str], interest_id: str) -> None:
        entry = self._pending.get(key)
        if entry is None or entry.interest_id != interest_id:
            return
        del self._pending[key]
        self.retract(interest_id)
        self.counters["hash_query_timeouts"] += 1

    def _check(self, proc: ProcessInfo, sha256: str, now: float) -> None:
        sightings = self.downloads.by_hash(sha256, now)
        if not sightings:
            return
        dl = sightings[0]
        self._dedup.emit(Alert(
            kind=ATTACHMENT_EXECUTED, ts=now, host=proc.host,
            summary=(f"{proc.host}: pid {proc.pid} executed {proc.binary_path},"
                     f" downloaded {now - dl.ts:.1f}s earlier"),
            evidence={"host": proc.host, "pid": proc.pid,
                      "binary_path": proc.binary_path, "sha256": sha256,
                      "uid": proc.uid, "download_ts": dl.ts,
                      "flow_uid": dl.flow_uid, "flow": dl.flow.to_dict(),
                      "origin_kind": dl.origin_kind}))


@dataclass(frozen=True)
class _SSHLeg:
    host: str
    pid: int
    flow_uid: str
    ts: float           # flow end: when the report arrived
    peer: str


@dataclass
class _PendingDescendants:
    interest_id: str
    attempts: list[tuple[_SSHLeg, _SSHLeg, tuple]] = field(default_factory=list)


class SteppingStoneDetector:
    """Alert when one host carries an inbound SSH session whose process tree
    spawned a fresh outbound SSH connection within the pairing window.

    Flow reports land at flow end, so the outbound leg of a relay typically
    arrives before the inbound session that caused it; pairing is therefore
    order-independent over leg end times.  Tree membership comes from a
    one-time `process_descendants` query against the session leader.
    """

    def __init__(self, publish: Callable[[str, str], str],
                 retract: Callable[[str], None],
                 alert_sink: Callable[[Alert], None],
                 scheduler, pairing_window: float = 600.0,
                 query_timeout: float = 5.0):
        self.publish = publish
        self.retract = retract
        self.scheduler = scheduler
        self.pairing_window = pairing_window
        self.query_timeout = query_timeout
        self.counters: collections.Counter = collections.Counter()
        self._dedup = _AlertDedup(alert_sink, self.counters)
        self._incoming: dict[str, list[_SSHLeg]] = collections.defaultdict(list)
        self._outgoing: dict[str, list[_SSHLeg]] = collections.defaultdict(list)
        # pair key -> time of the pair's newer leg
        self._attempted: dict[tuple, float] = {}
        self._pending: dict[tuple[str, int], _PendingDescendants] = {}

    def on_attributed(self, result: AttributionResult, now: float) -> None:
        flow = result.flow
        if flow.proto is not Proto.TCP or flow.resp_port != SSH_PORT:
            return
        self.counters["ssh_flows"] += 1
        uid = _flow_uid(result)
        ts = result.flow_end
        self._prune(now)
        for cand in result.responder:
            leg = _SSHLeg(cand.host, cand.pid, uid, ts,
                          f"{flow.orig_addr}:{flow.orig_port}")
            self._incoming[cand.host].append(leg)
            self._pair(cand.host, [leg], self._outgoing.get(cand.host, ()))
        for cand in result.originator:
            leg = _SSHLeg(cand.host, cand.pid, uid, ts,
                          f"{flow.resp_addr}:{flow.resp_port}")
            self._outgoing[cand.host].append(leg)
            self._pair(cand.host, self._incoming.get(cand.host, ()), [leg])

    def _prune(self, now: float) -> None:
        cutoff = now - self.pairing_window
        for legs_by_host in (self._incoming, self._outgoing):
            for host in list(legs_by_host):
                kept = [leg for leg in legs_by_host[host] if leg.ts >= cutoff]
                if kept:
                    legs_by_host[host] = kept
                else:
                    del legs_by_host[host]
        # once its newer leg is pruned, neither leg can pair again
        self._attempted = {key: ts for key, ts in self._attempted.items()
                           if ts >= cutoff}

    def _pair(self, host: str, incoming, outgoing) -> None:
        for leg_in in incoming:
            for leg_out in outgoing:
                if leg_in.flow_uid and leg_in.flow_uid == leg_out.flow_uid:
                    continue
                if abs(leg_in.ts - leg_out.ts) > self.pairing_window:
                    continue
                key = (host, leg_in.flow_uid, leg_out.flow_uid,
                       leg_in.pid, leg_out.pid)
                if key in self._attempted:
                    continue
                self._attempted[key] = max(leg_in.ts, leg_out.ts)
                self._query(host, leg_in, leg_out, key)

    def _query(self, host: str, leg_in: _SSHLeg, leg_out: _SSHLeg,
               key: tuple) -> None:
        pending = self._pending.get((host, leg_in.pid))
        if pending is not None:
            pending.attempts.append((leg_in, leg_out, key))
            return
        iid = self.publish(f"process_descendants WHERE pid == {leg_in.pid}",
                           host)
        self._pending[(host, leg_in.pid)] = _PendingDescendants(
            interest_id=iid, attempts=[(leg_in, leg_out, key)])
        self.counters["descendant_queries"] += 1
        self.scheduler.call_later(self.query_timeout, self._on_timeout,
                                  (host, leg_in.pid), iid)

    def on_descendants(self, batch: SnapshotBatch, now: float) -> None:
        root = next((row["root"] for row in batch.rows if "root" in row), None)
        if root is None:
            return
        entry = self._pending.pop((batch.host, root), None)
        if entry is None:
            return
        self.retract(entry.interest_id)
        descendants = {row["pid"] for row in batch.rows if "pid" in row}
        for leg_in, leg_out, _key in entry.attempts:
            if leg_out.pid in descendants:
                self._dedup.emit(Alert(
                    kind=STEPPING_STONE, ts=now, host=batch.host,
                    summary=(f"{batch.host}: inbound ssh session {leg_in.pid}"
                             f" relayed onward via pid {leg_out.pid}"),
                    evidence={"host": batch.host,
                              "in_pid": leg_in.pid, "out_pid": leg_out.pid,
                              "in_flow": leg_in.flow_uid,
                              "out_flow": leg_out.flow_uid,
                              "in_peer": leg_in.peer, "out_peer": leg_out.peer}))

    def _on_timeout(self, key: tuple[str, int], interest_id: str) -> None:
        entry = self._pending.get(key)
        if entry is None or entry.interest_id != interest_id:
            return
        del self._pending[key]
        self.retract(interest_id)
        self.counters["descendant_timeouts"] += 1
        for _leg_in, _leg_out, attempt_key in entry.attempts:
            self._attempted.pop(attempt_key, None)  # retriable on next sighting
