"""Flow-context detectors.

Both detectors work on engine-side knowledge only: attributed flows, wire
download observations, held host state, and answers to one-time host
queries.  `AttachmentDetector` flags execution of a binary whose content
hash, asked of its host, arrived over the network;
`SteppingStoneDetector` flags hosts relaying one inbound SSH session into a
new outbound one, read from the held process tree.  Each hands every alert
it derives to its sink; the engine's sink drops repeats.
"""

from __future__ import annotations

import collections
import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Optional

from .correlate import AttributionResult
from .flowlog import DownloadEvent, FlowRecord
from .model import ProcessInfo, Proto, SnapshotBatch
from .overlay import quote_literal
from .runtime import DeadlineMap
from .state import HostState

ATTACHMENT_EXECUTED = "attachment_executed"
STEPPING_STONE = "stepping_stone"

SSH_PORT = 22


@dataclass(frozen=True, slots=True)
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


# A download is forgotten this many seconds after its newest sighting.
DOWNLOAD_RETENTION = 86400.0


class DownloadStore:
    """Recent wire-observed downloads: the newest sighting of each content
    hash (on a tie, the first), aged out `DOWNLOAD_RETENTION` seconds after
    it."""

    def __init__(self):
        self._newest: dict[str, DownloadEvent] = {}

    def __len__(self) -> int:
        return len(self._newest)

    def add(self, ev: DownloadEvent) -> None:
        held = self._newest.get(ev.sha256)
        if held is None or ev.ts > held.ts:
            self._newest[ev.sha256] = ev

    def prune(self, now: float) -> None:
        cutoff = now - DOWNLOAD_RETENTION
        self._newest = {h: ev for h, ev in self._newest.items() if ev.ts >= cutoff}

    def newest(self, sha256: str, now: float) -> Optional[DownloadEvent]:
        self.prune(now)
        return self._newest.get(sha256)


# An unanswered `file_hash` query is retracted this many seconds after it
# was asked.
HASH_QUERY_TIMEOUT = 5.0


@dataclass(slots=True)
class _HashQuery:
    """A `file_hash` query in flight and the execs waiting on its answer."""

    interest_id: str
    execs: list[ProcessInfo]
    deadline: float = 0.0   # set by `DeadlineMap.add`


class AttachmentDetector:
    """Alert when a process executes a binary whose hash matches a recent
    download.

    While the fleet-wide download store holds any download, on any host,
    each audit-observed exec triggers a one-time `file_hash` query scoped to
    the exec's host, unless the (host, path) hash is already cached.  At
    most one query per (host, path) is in flight, in a `DeadlineMap`: later
    execs wait on it, and it is retracted on its answer or, unanswered, at
    `HASH_QUERY_TIMEOUT`, when its execs go unchecked and a counter is
    bumped.
    """

    def __init__(self, downloads: DownloadStore,
                 publish: Callable[[str, str], str],
                 retract: Callable[[str], None],
                 alert_sink: Callable[[Alert], None],
                 scheduler):
        self.downloads = downloads
        self.counters: collections.Counter = collections.Counter()
        self._alert_sink = alert_sink
        self._publish = publish
        self._retract = retract
        self._queries = DeadlineMap(scheduler, HASH_QUERY_TIMEOUT, self._on_timeout)
        self._hash_cache: dict[tuple[str, str], str] = {}

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
        pending = self._queries.get(key)
        if pending is not None:
            pending.execs.append(proc)
            return
        query = f"file_hash WHERE path == {quote_literal(proc.binary_path)}"
        self._queries.add(key, _HashQuery(self._publish(query, proc.host), [proc]))
        self.counters["hash_queries"] += 1

    def on_file_hash(self, batch: SnapshotBatch, now: float) -> None:
        for row in batch.rows:
            key = (batch.host, row.path)
            self._hash_cache[key] = row.sha256
            pending = self._queries.pop(key, None)
            if pending is None:
                continue
            self._retract(pending.interest_id)
            for proc in pending.execs:
                self._check(proc, row.sha256, now)

    def _on_timeout(self, key: tuple[str, str]) -> None:
        self._retract(self._queries.pop(key).interest_id)
        self.counters["hash_query_timeouts"] += 1  # the execs go unchecked

    def _check(self, proc: ProcessInfo, sha256: str, now: float) -> None:
        dl = self.downloads.newest(sha256, now)
        if dl is None:
            return
        self._alert_sink(Alert(
            kind=ATTACHMENT_EXECUTED, ts=now, host=proc.host,
            summary=(f"{proc.host}: pid {proc.pid} executed {proc.binary_path},"
                     f" downloaded {now - dl.ts:.1f}s earlier"),
            evidence={"host": proc.host, "pid": proc.pid,
                      "binary_path": proc.binary_path, "sha256": sha256,
                      "uid": proc.uid, "download_ts": dl.ts,
                      "flow_uid": dl.flow_uid, "flow": dl.flow.to_dict(),
                      "origin_kind": dl.origin_kind}))


@dataclass(frozen=True, slots=True)
class _SSHLeg:
    pid: int
    flow_uid: str
    ts: float           # flow end: when the report arrived
    peer: str


def descends_from(processes: dict[int, ProcessInfo], pid: int,
                  leader: int) -> bool:
    """Whether walking `parent_pid` up from `pid` reaches `leader` before a
    pid `processes` does not hold or one already passed (a cycle); a
    process never descends from itself."""
    seen = {pid}
    proc = processes.get(pid)
    while proc is not None and proc.parent_pid not in seen:
        if proc.parent_pid == leader:
            return True
        seen.add(proc.parent_pid)
        proc = processes.get(proc.parent_pid)
    return False


# Two SSH legs on one host pair only when their flows ended at most this
# many seconds apart; older legs are dropped.
SSH_PAIRING_WINDOW = 600.0


class SteppingStoneDetector:
    """Alert when one host carries an inbound SSH session whose process tree
    spawned a fresh outbound SSH connection within `SSH_PAIRING_WINDOW`.

    Flow reports land at flow end, so the outbound leg of a relay typically
    arrives before the inbound session that caused it; pairing is therefore
    order-independent over leg end times.  A pair is decided when its later
    leg is attributed, from the host's held process tree as `view` returns
    it then: frozen, but still held, while the host is disconnected.  A
    re-reported leg decides its pairs again and re-derives the same alerts.
    """

    def __init__(self, view: Callable[[str], Optional[HostState]],
                 alert_sink: Callable[[Alert], None]):
        self.counters: collections.Counter = collections.Counter()
        self._view = view
        self._alert_sink = alert_sink
        self._incoming: dict[str, list[_SSHLeg]] = collections.defaultdict(list)
        self._outgoing: dict[str, list[_SSHLeg]] = collections.defaultdict(list)

    def on_attributed(self, result: AttributionResult, now: float) -> None:
        flow = result.flow
        if flow.proto is not Proto.TCP or flow.resp_port != SSH_PORT:
            return
        self.counters["ssh_flows"] += 1
        uid = result.tag.uid if isinstance(result.tag, FlowRecord) else ""
        ts = result.flow_end
        self._prune(now)
        for cand in result.responder:
            leg = _SSHLeg(cand.pid, uid, ts, f"{flow.orig_addr}:{flow.orig_port}")
            self._incoming[cand.host].append(leg)
            self._pair(cand.host, [leg], self._outgoing.get(cand.host, ()), now)
        for cand in result.originator:
            leg = _SSHLeg(cand.pid, uid, ts, f"{flow.resp_addr}:{flow.resp_port}")
            self._outgoing[cand.host].append(leg)
            self._pair(cand.host, self._incoming.get(cand.host, ()), [leg], now)

    def _prune(self, now: float) -> None:
        cutoff = now - SSH_PAIRING_WINDOW
        for legs_by_host in (self._incoming, self._outgoing):
            for host in list(legs_by_host):
                kept = [leg for leg in legs_by_host[host] if leg.ts >= cutoff]
                if kept:
                    legs_by_host[host] = kept
                else:
                    del legs_by_host[host]

    def _pair(self, host: str, incoming, outgoing, now: float) -> None:
        for leg_in in incoming:
            for leg_out in outgoing:
                if leg_in.flow_uid and leg_in.flow_uid == leg_out.flow_uid:
                    continue
                if abs(leg_in.ts - leg_out.ts) > SSH_PAIRING_WINDOW:
                    continue
                state = self._view(host)
                if state is not None and descends_from(
                        state.processes, leg_out.pid, leg_in.pid):
                    self._alert_sink(Alert(
                        kind=STEPPING_STONE, ts=now, host=host,
                        summary=(f"{host}: inbound ssh session {leg_in.pid}"
                                 f" relayed onward via pid {leg_out.pid}"),
                        evidence={"host": host,
                                  "in_pid": leg_in.pid, "out_pid": leg_out.pid,
                                  "in_flow": leg_in.flow_uid,
                                  "out_flow": leg_out.flow_uid,
                                  "in_peer": leg_in.peer, "out_peer": leg_out.peer}))
