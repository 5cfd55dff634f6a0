"""Versioned line-oriented log formats.

Flow input is tab-separated with a two-line header (format tag + field
list), deliberately shaped like a network monitor's connection log so real
logs can be replayed offline.  The enriched output appends attribution
columns.  Alerts, metrics and recorded engine inputs are JSON lines behind
the same header convention.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .model import FlowTuple, Proto
from .correlate import AttributionResult

FORMAT_PREFIX = "#flowlink"
FLOW_FORMAT = "flow-log v1"
ENRICHED_FORMAT = "enriched-flow-log v1"
ALERT_FORMAT = "alert-log v1"
INPUTS_FORMAT = "inputs v1"

FLOW_FIELDS = ("ts", "uid", "orig_h", "orig_p", "resp_h", "resp_p", "proto",
               "duration", "orig_bytes", "resp_bytes", "orig_pkts", "resp_pkts")
ENRICH_FIELDS = FLOW_FIELDS + ("orig_host", "orig_pids", "orig_binary",
                               "orig_users", "status")

EMPTY = "-"


class LogFormatError(ValueError):
    pass


def _fmt_float(x: float) -> str:
    return f"{x:.6f}"


@dataclass(frozen=True)
class FlowRecord:
    """One flow observation; `ts` is the start, the record is reported at
    ts + duration."""

    ts: float
    uid: str
    orig_h: str
    orig_p: int
    resp_h: str
    resp_p: int
    proto: Proto
    duration: float = 0.0
    orig_bytes: int = 0
    resp_bytes: int = 0
    orig_pkts: int = 0
    resp_pkts: int = 0

    @property
    def end(self) -> float:
        return self.ts + self.duration

    def flow_tuple(self) -> FlowTuple:
        return FlowTuple(self.orig_h, self.orig_p, self.resp_h, self.resp_p,
                         self.proto)

    def to_row(self) -> list[str]:
        return [_fmt_float(self.ts), self.uid, self.orig_h, str(self.orig_p),
                self.resp_h, str(self.resp_p), self.proto.value,
                _fmt_float(self.duration), str(self.orig_bytes),
                str(self.resp_bytes), str(self.orig_pkts), str(self.resp_pkts)]

    @classmethod
    def from_fields(cls, values: dict[str, str]) -> "FlowRecord":
        try:
            return cls(
                ts=float(values["ts"]), uid=values["uid"],
                orig_h=values["orig_h"], orig_p=int(values["orig_p"]),
                resp_h=values["resp_h"], resp_p=int(values["resp_p"]),
                proto=Proto(values["proto"]),
                duration=float(values.get("duration", "0") or 0),
                orig_bytes=int(values.get("orig_bytes", "0") or 0),
                resp_bytes=int(values.get("resp_bytes", "0") or 0),
                orig_pkts=int(values.get("orig_pkts", "0") or 0),
                resp_pkts=int(values.get("resp_pkts", "0") or 0),
            )
        except (KeyError, ValueError) as exc:
            raise LogFormatError(f"bad flow row {values!r}: {exc}") from exc

    def to_dict(self) -> dict:
        return {"ts": self.ts, "uid": self.uid, "orig_h": self.orig_h,
                "orig_p": self.orig_p, "resp_h": self.resp_h,
                "resp_p": self.resp_p, "proto": self.proto.value,
                "duration": self.duration, "orig_bytes": self.orig_bytes,
                "resp_bytes": self.resp_bytes, "orig_pkts": self.orig_pkts,
                "resp_pkts": self.resp_pkts}

    @classmethod
    def from_dict(cls, d: dict) -> "FlowRecord":
        d = dict(d)
        d["proto"] = Proto(d["proto"])
        return cls(**d)


# --- header handling --------------------------------------------------------------

def write_header(out: IO[str], format_name: str, field_names: Iterable[str]) -> None:
    out.write(f"{FORMAT_PREFIX} {format_name}\n")
    out.write("#fields\t" + "\t".join(field_names) + "\n")


def read_header(lines: Iterator[str], expect_format: str) -> list[str]:
    try:
        first = next(lines)
    except StopIteration:
        raise LogFormatError("empty log file") from None
    if not first.startswith(FORMAT_PREFIX):
        raise LogFormatError(f"missing {FORMAT_PREFIX} header: {first!r}")
    got = first[len(FORMAT_PREFIX):].strip()
    if got != expect_format:
        raise LogFormatError(f"expected {expect_format!r}, found {got!r}")
    try:
        second = next(lines)
    except StopIteration:
        raise LogFormatError("missing #fields line") from None
    if not second.startswith("#fields"):
        raise LogFormatError(f"missing #fields line: {second!r}")
    return second.rstrip("\n").split("\t")[1:]


# --- flow logs ---------------------------------------------------------------------

def parse_flow_line(line: str, field_names: Iterable[str] = FLOW_FIELDS) -> FlowRecord:
    values = dict(zip(field_names, line.rstrip("\n").split("\t")))
    return FlowRecord.from_fields(values)


def read_flows(lines: Iterator[str]) -> Iterator[FlowRecord]:
    field_names = read_header(lines, FLOW_FORMAT)
    for line in lines:
        if not line.strip() or line.startswith("#"):
            continue
        yield parse_flow_line(line, field_names)


def _join(values: Iterable[str]) -> str:
    items = sorted(set(v for v in values if v != ""))
    return ",".join(items) if items else EMPTY


def enrich_columns(result: AttributionResult) -> list[str]:
    """The appended attribution columns for one decided flow."""
    cands = result.originator
    users = []
    for c in cands:
        if c.user_name:
            users.append(c.user_name)
        elif c.uid is not None:
            users.append(str(c.uid))
    return [
        _join(c.host for c in cands),
        _join(str(c.pid) for c in cands),
        _join(c.binary_path for c in cands),
        _join(users),
        result.status(),
    ]


class EnrichedFlowWriter:
    """Flow log plus attribution columns; one line per decided flow."""

    def __init__(self, out: IO[str]):
        self.out = out
        write_header(out, ENRICHED_FORMAT, ENRICH_FIELDS)

    def write(self, record: FlowRecord, result: AttributionResult) -> None:
        self.out.write("\t".join(record.to_row() + enrich_columns(result)) + "\n")
        self.out.flush()


def read_enriched(lines: Iterator[str]) -> Iterator[dict[str, str]]:
    field_names = read_header(lines, ENRICHED_FORMAT)
    for line in lines:
        if not line.strip() or line.startswith("#"):
            continue
        yield dict(zip(field_names, line.rstrip("\n").split("\t")))


# --- alert log -----------------------------------------------------------------------

class AlertWriter:
    def __init__(self, out: IO[str]):
        self.out = out
        self.out.write(f"{FORMAT_PREFIX} {ALERT_FORMAT}\n")

    def write(self, alert_dict: dict) -> None:
        self.out.write(json.dumps(alert_dict, sort_keys=True) + "\n")
        self.out.flush()


def read_alerts(lines: Iterator[str]) -> Iterator[dict]:
    try:
        first = next(lines)
    except StopIteration:
        raise LogFormatError("empty alert log") from None
    if first.strip() != f"{FORMAT_PREFIX} {ALERT_FORMAT}":
        raise LogFormatError(f"bad alert log header: {first!r}")
    for line in lines:
        if line.strip():
            yield json.loads(line)


# --- download events ---------------------------------------------------------------------

@dataclass(frozen=True)
class DownloadEvent:
    """A completed file download observed on the wire: hash plus the flow
    that carried it."""

    ts: float
    sha256: str
    flow: FlowTuple
    flow_uid: str = ""
    origin_kind: str = "http_download"  # or mail_attachment

    def to_row(self) -> list[str]:
        return [_fmt_float(self.ts), self.sha256, self.flow.orig_addr,
                str(self.flow.orig_port), self.flow.resp_addr,
                str(self.flow.resp_port), self.flow.proto.value,
                self.flow_uid or EMPTY, self.origin_kind]

    def to_dict(self) -> dict:
        return {"ts": self.ts, "sha256": self.sha256,
                "orig_h": self.flow.orig_addr, "orig_p": self.flow.orig_port,
                "resp_h": self.flow.resp_addr, "resp_p": self.flow.resp_port,
                "proto": self.flow.proto.value, "flow_uid": self.flow_uid,
                "origin_kind": self.origin_kind}

    @classmethod
    def from_dict(cls, d: dict) -> "DownloadEvent":
        return cls(ts=float(d["ts"]), sha256=d["sha256"],
                   flow=FlowTuple(d["orig_h"], int(d["orig_p"]), d["resp_h"],
                                  int(d["resp_p"]), Proto(d["proto"])),
                   flow_uid=d.get("flow_uid", ""),
                   origin_kind=d.get("origin_kind", "http_download"))


# --- recorded engine inputs --------------------------------------------------------------

class InputRecorder:
    """Tap on everything the engine ingests, written as JSON lines so a later
    run can reproduce the exact input schedule."""

    def __init__(self, out: IO[str]):
        self.out = out
        self.out.write(f"{FORMAT_PREFIX} {INPUTS_FORMAT}\n")

    def record(self, t: float, kind: str, data: dict, topic: str = "") -> None:
        entry = {"t": t, "kind": kind, "data": data}
        if topic:
            entry["topic"] = topic
        self.out.write(json.dumps(entry, sort_keys=True) + "\n")

    def close(self) -> None:
        self.out.flush()


def read_inputs(lines: Iterator[str]) -> Iterator[dict]:
    try:
        first = next(lines)
    except StopIteration:
        raise LogFormatError("empty inputs file") from None
    if first.strip() != f"{FORMAT_PREFIX} {INPUTS_FORMAT}":
        raise LogFormatError(f"bad inputs header: {first!r}")
    for line in lines:
        if line.strip():
            yield json.loads(line)
