"""Shared vocabulary: flows, host telemetry records, and the primitive that
matches a flow tuple against a socket record.

Flow orientation (originator vs. responder) is semantic: it is fixed by who
initiated the flow, never by address ordering. Socket endpoints are local vs.
remote as seen from the host that owns the socket.

The `from_dict` decoders intern each record's host, binary path and user
name, so a decoded fleet holds one copy of each string; addresses are shared
through `canonical_addr`'s cache.
"""

from __future__ import annotations

import ipaddress
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Any

WILDCARD_ADDRS = frozenset({"0.0.0.0", "::"})


class Proto(str, Enum):
    TCP = "tcp"
    UDP = "udp"
    ICMP = "icmp"


class Side(str, Enum):
    ORIGINATOR = "originator"
    RESPONDER = "responder"


class Direction(str, Enum):
    OUTGOING = "outgoing"
    INCOMING = "incoming"
    LISTENING = "listening"


class Source(str, Enum):
    AUDIT = "audit"      # syscall stream: complete, but may lack local endpoints
    STATUS = "status"    # kernel snapshot: sound, but misses short-lived objects


class TableKind(str, Enum):
    PROCESS_EVENTS = "process_events"
    SOCKET_EVENTS = "socket_events"
    LISTENING_PORTS = "listening_ports"
    PROCESS_OPEN_SOCKETS = "process_open_sockets"
    PROCESSES = "processes"
    USERS = "users"
    INTERFACES = "interfaces"
    FILE_HASH = "file_hash"
    PROCESS_DESCENDANTS = "process_descendants"  # in older recordings only
    VERIFICATION = "verification"
    TLS_KEYS = "tls_keys"  # in older recordings only


class Action(str, Enum):
    ADDED = "added"
    REMOVED = "removed"


class MatchQuality(str, Enum):
    EXACT = "exact"
    PARTIAL = "partial"
    NONE = "none"


class _Members(dict):
    """Value -> member of one `Enum`, for decoding records: a lookup is one
    dict probe where `Enum(value)` goes through the metaclass.  An unknown
    value raises `ValueError`, as `Enum(value)` does."""

    def __init__(self, enum: type[Enum]):
        super().__init__((m.value, m) for m in enum)
        self._enum = enum

    def __missing__(self, value):
        raise ValueError(f"{value!r} is not a valid {self._enum.__name__}")


PROTOS = _Members(Proto)
DIRECTIONS = _Members(Direction)
SOURCES = _Members(Source)
TABLE_KINDS = _Members(TableKind)
ACTIONS = _Members(Action)


@lru_cache(maxsize=8192)
def canonical_addr(addr: str) -> str:
    """Normalize an IP address string; IPv4-mapped IPv6 collapses to IPv4.

    Genuine SIIT-style v4-in-v6 embeddings (non-mapped) are left alone and
    stay an accepted attribution miss.
    """
    try:
        ip = ipaddress.ip_address(addr)
    except ValueError:
        return addr
    if isinstance(ip, ipaddress.IPv6Address) and ip.ipv4_mapped is not None:
        return str(ip.ipv4_mapped)
    return str(ip)


def is_wildcard(addr: str | None) -> bool:
    return addr in WILDCARD_ADDRS


@dataclass(frozen=True, slots=True)
class FlowTuple:
    """5-tuple identity of a network flow, oriented by flow initiation."""

    orig_addr: str
    orig_port: int
    resp_addr: str
    resp_port: int
    proto: Proto

    def __post_init__(self):
        object.__setattr__(self, "orig_addr", canonical_addr(self.orig_addr))
        object.__setattr__(self, "resp_addr", canonical_addr(self.resp_addr))

    def to_dict(self) -> dict[str, Any]:
        return {
            "orig_addr": self.orig_addr,
            "orig_port": self.orig_port,
            "resp_addr": self.resp_addr,
            "resp_port": self.resp_port,
            "proto": self.proto.value,
        }


@dataclass(frozen=True, slots=True)
class SocketInfo:
    """One socket as known from host telemetry; identity is (host, pid, fd)."""

    host: str
    pid: int
    fd: int
    proto: Proto
    direction: Direction
    source: Source
    local_addr: str | None = None
    local_port: int | None = None
    remote_addr: str | None = None
    remote_port: int | None = None
    first_seen: float = 0.0

    def __post_init__(self):
        if self.local_addr is not None:
            object.__setattr__(self, "local_addr", canonical_addr(self.local_addr))
        if self.remote_addr is not None:
            object.__setattr__(self, "remote_addr", canonical_addr(self.remote_addr))

    @property
    def key(self) -> tuple[int, int]:
        return (self.pid, self.fd)

    def has_local(self) -> bool:
        return self.local_addr is not None and self.local_port is not None

    def has_remote(self) -> bool:
        return self.remote_addr is not None and self.remote_port is not None

    def to_dict(self) -> dict[str, Any]:
        return {
            "host": self.host, "pid": self.pid, "fd": self.fd,
            "proto": self.proto.value, "direction": self.direction.value,
            "source": self.source.value,
            "local_addr": self.local_addr, "local_port": self.local_port,
            "remote_addr": self.remote_addr, "remote_port": self.remote_port,
            "first_seen": self.first_seen,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "SocketInfo":
        return cls(
            host=sys.intern(d["host"]), pid=int(d["pid"]), fd=int(d["fd"]),
            proto=PROTOS[d["proto"]], direction=DIRECTIONS[d["direction"]],
            source=SOURCES[d["source"]],
            local_addr=d.get("local_addr"), local_port=d.get("local_port"),
            remote_addr=d.get("remote_addr"), remote_port=d.get("remote_port"),
            first_seen=float(d.get("first_seen", 0.0)),
        )


@dataclass(frozen=True, slots=True)
class ProcessInfo:
    """One process generation; (host, pid, start_time) guards pid reuse."""

    host: str
    pid: int
    parent_pid: int
    binary_path: str
    uid: int
    start_time: float
    source: Source

    def to_dict(self) -> dict[str, Any]:
        return {
            "host": self.host, "pid": self.pid, "parent_pid": self.parent_pid,
            "binary_path": self.binary_path, "uid": self.uid,
            "start_time": self.start_time, "source": self.source.value,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ProcessInfo":
        return cls(
            host=sys.intern(d["host"]), pid=int(d["pid"]),
            parent_pid=int(d["parent_pid"]),
            binary_path=sys.intern(d["binary_path"]), uid=int(d["uid"]),
            start_time=float(d["start_time"]), source=SOURCES[d["source"]],
        )


@dataclass(frozen=True, slots=True)
class UserInfo:
    host: str
    uid: int
    name: str
    is_system: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {"host": self.host, "uid": self.uid, "name": self.name,
                "is_system": self.is_system}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "UserInfo":
        return cls(sys.intern(d["host"]), int(d["uid"]), sys.intern(d["name"]),
                   bool(d["is_system"]))


@dataclass(frozen=True, slots=True)
class InterfaceRecord:
    """One interface address of a host."""

    host: str
    addr: str

    def __post_init__(self):
        object.__setattr__(self, "addr", canonical_addr(self.addr))

    def to_dict(self) -> dict[str, Any]:
        return {"host": self.host, "addr": self.addr}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "InterfaceRecord":
        return cls(sys.intern(d["host"]), d["addr"])


@dataclass(frozen=True, slots=True)
class FileHashRecord:
    """Digest of a file on a host, answered by on-demand hash queries."""

    host: str
    path: str
    sha256: str

    def to_dict(self) -> dict[str, Any]:
        return {"host": self.host, "path": self.path, "sha256": self.sha256}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FileHashRecord":
        return cls(sys.intern(d["host"]), d["path"], d["sha256"])


_PAYLOAD_KINDS = {
    "socket": SocketInfo,
    "process": ProcessInfo,
    "user": UserInfo,
    "interface": InterfaceRecord,
    "file_hash": FileHashRecord,
}


def payload_to_dict(payload: Any) -> dict[str, Any]:
    for kind, cls in _PAYLOAD_KINDS.items():
        if isinstance(payload, cls):
            d = payload.to_dict()
            d["_kind"] = kind
            return d
    raise TypeError(f"unsupported payload type: {type(payload)!r}")


def payload_from_dict(d: dict[str, Any]) -> Any:
    """Decode one record; an `opaque` one, in older recordings only,
    decodes as a plain dict."""
    kind = d.get("_kind", "opaque")
    if kind == "opaque":
        return {k: v for k, v in d.items() if k != "_kind"}
    return _PAYLOAD_KINDS[kind].from_dict(d)


@dataclass(frozen=True, slots=True)
class HostEvent:
    """One telemetry record from a host.  A payload that decodes as a plain
    dict occurs in older recordings only, and no table reads it."""

    host: str
    table: TableKind
    action: Action
    payload: Any
    event_time: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "host": self.host, "table": self.table.value,
            "action": self.action.value,
            "payload": payload_to_dict(self.payload),
            "event_time": self.event_time,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "HostEvent":
        return cls(
            host=sys.intern(d["host"]), table=TABLE_KINDS[d["table"]],
            action=ACTIONS[d["action"]],
            payload=payload_from_dict(d["payload"]),
            event_time=float(d["event_time"]),
        )


@dataclass(frozen=True, slots=True)
class SnapshotBatch:
    """A complete table snapshot from one probe of a host.

    A batch of the `verification` table is the atomic process+socket probe
    used to purge entries that vanished without a removal event.
    """

    host: str
    table: TableKind
    batch_id: int
    rows: tuple = ()
    event_time: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "host": self.host, "table": self.table.value,
            "batch_id": self.batch_id,
            "rows": [payload_to_dict(r) for r in self.rows],
            "event_time": self.event_time,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "SnapshotBatch":
        return cls(
            host=sys.intern(d["host"]), table=TABLE_KINDS[d["table"]],
            batch_id=int(d["batch_id"]),
            rows=tuple(payload_from_dict(r) for r in d["rows"]),
            event_time=float(d["event_time"]),
        )


@dataclass(frozen=True, slots=True)
class QueryErrorResult:
    """Agent-side failure executing a scheduled or one-time query."""

    host: str
    query: str
    error: str
    event_time: float = 0.0

    def to_dict(self) -> dict:
        return {"host": self.host, "query": self.query, "error": self.error,
                "event_time": self.event_time}

    @classmethod
    def from_dict(cls, d: dict) -> "QueryErrorResult":
        return cls(host=sys.intern(d["host"]), query=d["query"], error=d["error"],
                   event_time=float(d.get("event_time", 0.0)))


def _endpoint_eq(sock_addr: str | None, sock_port: int | None,
                 addr: str, port: int) -> bool:
    if sock_port != port:
        return False
    if is_wildcard(sock_addr):
        # Wildcard bind accepts any local address of the host; the host set
        # was already narrowed by address resolution, so this stays sound.
        return True
    return sock_addr == addr


def match_socket(flow: FlowTuple, side: Side, sock: SocketInfo) -> MatchQuality:
    """Grade how well a socket explains one side of a flow.

    Destination first: the flow destination must equal the socket's remote
    (originator side) or local (responder side) endpoint. The flow source is
    then required on the opposite socket endpoint for an exact match; if that
    endpoint is absent from telemetry the match is only partial. ICMP never
    matches sockets.
    """
    if flow.proto is Proto.ICMP or sock.proto is Proto.ICMP:
        return MatchQuality.NONE
    if flow.proto is not sock.proto:
        return MatchQuality.NONE

    if side is Side.ORIGINATOR:
        if not sock.has_remote():
            return MatchQuality.NONE
        if not (sock.remote_addr == flow.resp_addr and sock.remote_port == flow.resp_port):
            return MatchQuality.NONE
        if not sock.has_local():
            return MatchQuality.PARTIAL
        if _endpoint_eq(sock.local_addr, sock.local_port, flow.orig_addr, flow.orig_port):
            return MatchQuality.EXACT
        return MatchQuality.NONE

    if not sock.has_local():
        return MatchQuality.NONE
    if not _endpoint_eq(sock.local_addr, sock.local_port, flow.resp_addr, flow.resp_port):
        return MatchQuality.NONE
    if not sock.has_remote():
        return MatchQuality.PARTIAL
    if sock.remote_addr == flow.orig_addr and sock.remote_port == flow.orig_port:
        return MatchQuality.EXACT
    return MatchQuality.NONE

