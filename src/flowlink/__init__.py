"""flowlink: correlates network flows with host telemetry to attribute
traffic to the originating host, process, and user."""

__version__ = "0.1.0"

from flowlink.model import (
    FlowTuple,
    HostEvent,
    MatchQuality,
    ProcessInfo,
    Proto,
    SocketInfo,
    UserInfo,
    match_socket,
)

__all__ = [
    "FlowTuple",
    "HostEvent",
    "MatchQuality",
    "ProcessInfo",
    "Proto",
    "SocketInfo",
    "UserInfo",
    "match_socket",
]
