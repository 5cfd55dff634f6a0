"""Shared builders for telemetry records used across the test suite."""

from __future__ import annotations

from flowlink.model import (
    Action,
    Direction,
    FileHashRecord,
    HostEvent,
    InterfaceRecord,
    ProcessInfo,
    Proto,
    SnapshotBatch,
    SocketInfo,
    Source,
    TableKind,
    UserInfo,
)


def make_proc(host="h1", pid=100, ppid=1, binary="/usr/bin/bash", uid=1000,
              start=1.0, source=Source.AUDIT) -> ProcessInfo:
    return ProcessInfo(host=host, pid=pid, parent_pid=ppid, binary_path=binary,
                       uid=uid, start_time=start, source=source)


def make_sock(host="h1", pid=100, fd=5, proto=Proto.TCP,
              direction=Direction.OUTGOING, source=Source.AUDIT,
              local=None, remote=None, first_seen=1.0) -> SocketInfo:
    la, lp = local if local else (None, None)
    ra, rp = remote if remote else (None, None)
    return SocketInfo(host=host, pid=pid, fd=fd, proto=proto, direction=direction,
                      source=source, local_addr=la, local_port=lp,
                      remote_addr=ra, remote_port=rp, first_seen=first_seen)


def make_user(host="h1", uid=1000, name="alice", system=False) -> UserInfo:
    return UserInfo(host=host, uid=uid, name=name, is_system=system)


def ev(payload, table: TableKind, action=Action.ADDED, t=1.0) -> HostEvent:
    return HostEvent(host=payload.host, table=table, action=action,
                     payload=payload, event_time=t)


def proc_ev(payload, action=Action.ADDED, t=1.0) -> HostEvent:
    return ev(payload, TableKind.PROCESS_EVENTS, action, t)


def sock_ev(payload, action=Action.ADDED, t=1.0,
            table=TableKind.SOCKET_EVENTS) -> HostEvent:
    return ev(payload, table, action, t)


def iface_ev(host, addr, action=Action.ADDED, t=1.0) -> HostEvent:
    return ev(InterfaceRecord(host, addr), TableKind.INTERFACES, action, t)


def user_ev(payload, action=Action.ADDED, t=1.0) -> HostEvent:
    return ev(payload, TableKind.USERS, action, t)


def snapshot(host, table, rows, batch_id=1, t=1.0) -> SnapshotBatch:
    return SnapshotBatch(host=host, table=table, batch_id=batch_id,
                         rows=tuple(rows), event_time=t)


def hash_row(host, path, sha) -> FileHashRecord:
    return FileHashRecord(host=host, path=path, sha256=sha)
