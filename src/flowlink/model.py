"""Shared vocabulary: flows, host telemetry records, and the primitive that
matches a flow tuple against a socket record.

Flow orientation (originator vs. responder) is semantic: it is fixed by who
initiated the flow, never by address ordering. Socket endpoints are local vs.
remote as seen from the host that owns the socket.
"""

from __future__ import annotations

import ipaddress
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
    PROCESS_DESCENDANTS = "process_descendants"
    VERIFICATION = "verification"
    TLS_KEYS = "tls_keys"  # reserved: carried but never interpreted


class Action(str, Enum):
    ADDED = "added"
    REMOVED = "removed"
    SNAPSHOT = "snapshot"


class MatchQuality(str, Enum):
    EXACT = "exact"
    PARTIAL = "partial"
    NONE = "none"


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


@dataclass(frozen=True)
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

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FlowTuple":
        return cls(d["orig_addr"], int(d["orig_port"]), d["resp_addr"],
                   int(d["resp_port"]), Proto(d["proto"]))


def invert(flow: FlowTuple) -> FlowTuple:
    """Swap originator and responder endpoint pairs; involutive."""
    return FlowTuple(flow.resp_addr, flow.resp_port,
                     flow.orig_addr, flow.orig_port, flow.proto)


@dataclass(frozen=True)
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
    last_verified: float = 0.0

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
            "first_seen": self.first_seen, "last_verified": self.last_verified,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "SocketInfo":
        return cls(
            host=d["host"], pid=int(d["pid"]), fd=int(d["fd"]),
            proto=Proto(d["proto"]), direction=Direction(d["direction"]),
            source=Source(d["source"]),
            local_addr=d.get("local_addr"), local_port=d.get("local_port"),
            remote_addr=d.get("remote_addr"), remote_port=d.get("remote_port"),
            first_seen=float(d.get("first_seen", 0.0)),
            last_verified=float(d.get("last_verified", 0.0)),
        )


@dataclass(frozen=True)
class ProcessInfo:
    """One process generation; (host, pid, start_time) guards pid reuse."""

    host: str
    pid: int
    parent_pid: int
    binary_path: str
    uid: int
    start_time: float
    source: Source
    binary_hash: str | None = None
    last_verified: float = 0.0

    @property
    def key(self) -> int:
        return self.pid

    def to_dict(self) -> dict[str, Any]:
        return {
            "host": self.host, "pid": self.pid, "parent_pid": self.parent_pid,
            "binary_path": self.binary_path, "uid": self.uid,
            "start_time": self.start_time, "source": self.source.value,
            "binary_hash": self.binary_hash, "last_verified": self.last_verified,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ProcessInfo":
        return cls(
            host=d["host"], pid=int(d["pid"]), parent_pid=int(d["parent_pid"]),
            binary_path=d["binary_path"], uid=int(d["uid"]),
            start_time=float(d["start_time"]), source=Source(d["source"]),
            binary_hash=d.get("binary_hash"),
            last_verified=float(d.get("last_verified", 0.0)),
        )


@dataclass(frozen=True)
class UserInfo:
    host: str
    uid: int
    name: str
    is_system: bool = False

    @property
    def key(self) -> int:
        return self.uid

    def to_dict(self) -> dict[str, Any]:
        return {"host": self.host, "uid": self.uid, "name": self.name,
                "is_system": self.is_system}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "UserInfo":
        return cls(d["host"], int(d["uid"]), d["name"], bool(d["is_system"]))


@dataclass(frozen=True)
class InterfaceRecord:
    """One interface address of a host."""

    host: str
    addr: str

    def __post_init__(self):
        object.__setattr__(self, "addr", canonical_addr(self.addr))

    @property
    def key(self) -> str:
        return self.addr

    def to_dict(self) -> dict[str, Any]:
        return {"host": self.host, "addr": self.addr}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "InterfaceRecord":
        return cls(d["host"], d["addr"])


@dataclass(frozen=True)
class FileHashRecord:
    """Digest of a file on a host, answered by on-demand hash queries."""

    host: str
    path: str
    sha256: str

    @property
    def key(self) -> str:
        return self.path

    def to_dict(self) -> dict[str, Any]:
        return {"host": self.host, "path": self.path, "sha256": self.sha256}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FileHashRecord":
        return cls(d["host"], d["path"], d["sha256"])


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
    if isinstance(payload, dict):  # opaque records (tls_keys) pass through
        return dict(payload, _kind="opaque")
    raise TypeError(f"unsupported payload type: {type(payload)!r}")


def payload_from_dict(d: dict[str, Any]) -> Any:
    kind = d.get("_kind", "opaque")
    if kind == "opaque":
        return {k: v for k, v in d.items() if k != "_kind"}
    return _PAYLOAD_KINDS[kind].from_dict(d)


@dataclass(frozen=True)
class HostEvent:
    """One telemetry record from a host.

    action=SNAPSHOT rows only travel inside a snapshot batch (batch_id set);
    tls_keys payloads are carried opaquely and never interpreted.
    """

    host: str
    table: TableKind
    action: Action
    payload: Any
    event_time: float
    response_topic: str = ""
    batch_id: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "host": self.host, "table": self.table.value,
            "action": self.action.value,
            "payload": payload_to_dict(self.payload),
            "event_time": self.event_time,
            "response_topic": self.response_topic,
            "batch_id": self.batch_id,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "HostEvent":
        return cls(
            host=d["host"], table=TableKind(d["table"]),
            action=Action(d["action"]),
            payload=payload_from_dict(d["payload"]),
            event_time=float(d["event_time"]),
            response_topic=d.get("response_topic", ""),
            batch_id=d.get("batch_id"),
        )


@dataclass(frozen=True)
class SnapshotBatch:
    """A complete table snapshot from one probe of a host.

    verification=True marks the atomic process+socket probe used to purge
    entries that vanished without a removal event.
    """

    host: str
    table: TableKind
    batch_id: int
    rows: tuple = ()
    event_time: float = 0.0
    response_topic: str = ""
    verification: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "host": self.host, "table": self.table.value,
            "batch_id": self.batch_id,
            "rows": [payload_to_dict(r) for r in self.rows],
            "event_time": self.event_time,
            "response_topic": self.response_topic,
            "verification": self.verification,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "SnapshotBatch":
        return cls(
            host=d["host"], table=TableKind(d["table"]),
            batch_id=int(d["batch_id"]),
            rows=tuple(payload_from_dict(r) for r in d["rows"]),
            event_time=float(d["event_time"]),
            response_topic=d.get("response_topic", ""),
            verification=bool(d.get("verification", False)),
        )


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

