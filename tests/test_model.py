"""Matching primitive tests, checked against an exhaustive truth-table oracle."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlink.model import (
    Direction,
    FlowTuple,
    MatchQuality,
    Proto,
    Side,
    SocketInfo,
    Source,
    canonical_addr,
    invert,
    match_socket,
)

A, B, C = "10.0.0.1", "10.0.0.2", "10.0.0.3"


def sock(local=None, remote=None, proto=Proto.TCP, direction=Direction.OUTGOING,
         source=Source.AUDIT, host="h1", pid=100, fd=5):
    la, lp = local if local else (None, None)
    ra, rp = remote if remote else (None, None)
    return SocketInfo(host=host, pid=pid, fd=fd, proto=proto, direction=direction,
                      source=source, local_addr=la, local_port=lp,
                      remote_addr=ra, remote_port=rp)


def oracle_match(flow: FlowTuple, side: Side, s: SocketInfo) -> MatchQuality:
    """Independent re-statement of the matching rule as a flat truth table.

    Works on raw endpoint tuples, no shared code with match_socket beyond the
    data types.
    """
    if Proto.ICMP in (flow.proto, s.proto) or flow.proto != s.proto:
        return MatchQuality.NONE
    local = (s.local_addr, s.local_port) if s.local_addr is not None and s.local_port is not None else None
    remote = (s.remote_addr, s.remote_port) if s.remote_addr is not None and s.remote_port is not None else None
    src = (flow.orig_addr, flow.orig_port)
    dst = (flow.resp_addr, flow.resp_port)

    def eq_local(endpoint, target):
        if endpoint is None:
            return False
        if endpoint[0] in ("0.0.0.0", "::"):
            return endpoint[1] == target[1]
        return endpoint == target

    if side is Side.ORIGINATOR:
        if remote != dst:
            return MatchQuality.NONE
        if local is None:
            return MatchQuality.PARTIAL
        return MatchQuality.EXACT if eq_local(local, src) else MatchQuality.NONE
    else:
        if not eq_local(local, dst):
            return MatchQuality.NONE
        if remote is None:
            return MatchQuality.PARTIAL
        return MatchQuality.EXACT if remote == src else MatchQuality.NONE


# --- invert -----------------------------------------------------------------

def test_invert_swaps_endpoints():
    f = FlowTuple("10.0.0.1", 5555, "10.0.0.2", 80, Proto.TCP)
    g = invert(f)
    assert (g.orig_addr, g.orig_port) == ("10.0.0.2", 80)
    assert (g.resp_addr, g.resp_port) == ("10.0.0.1", 5555)
    assert g.proto is Proto.TCP


def test_invert_icmp_keeps_zero_ports():
    f = FlowTuple(A, 0, B, 0, Proto.ICMP)
    g = invert(f)
    assert (g.orig_port, g.resp_port) == (0, 0)
    assert (g.orig_addr, g.resp_addr) == (B, A)


addrs = st.sampled_from([A, B, C, "192.0.2.7", "2001:db8::1"])
ports = st.integers(min_value=0, max_value=65535)
protos = st.sampled_from(list(Proto))


@st.composite
def flows(draw):
    proto = draw(protos)
    if proto is Proto.ICMP:
        return FlowTuple(draw(addrs), 0, draw(addrs), 0, proto)
    return FlowTuple(draw(addrs), draw(ports), draw(addrs), draw(ports), proto)


@given(flows())
def test_invert_is_involutive(f):
    assert invert(invert(f)) == f


# --- match_socket: spec examples --------------------------------------------

def test_full_five_tuple_match_is_exact():
    f = FlowTuple(A, 4000, B, 443, Proto.TCP)
    s = sock(local=(A, 4000), remote=(B, 443))
    assert match_socket(f, Side.ORIGINATOR, s) is MatchQuality.EXACT


def test_audit_socket_without_local_matches_partially():
    # connect() audit only carries the destination endpoint
    f = FlowTuple(A, 4000, B, 443, Proto.TCP)
    s = sock(remote=(B, 443))
    assert match_socket(f, Side.ORIGINATOR, s) is MatchQuality.PARTIAL


def test_listening_socket_matches_responder_partially():
    f = FlowTuple(A, 4000, B, 443, Proto.TCP)
    s = sock(local=(B, 443), direction=Direction.LISTENING, source=Source.STATUS)
    assert match_socket(f, Side.RESPONDER, s) is MatchQuality.PARTIAL


def test_wildcard_listening_socket_matches_any_local_addr():
    f = FlowTuple(A, 4000, B, 443, Proto.TCP)
    s = sock(local=("0.0.0.0", 443), direction=Direction.LISTENING)
    assert match_socket(f, Side.RESPONDER, s) is MatchQuality.PARTIAL
    s6 = sock(local=("::", 443), direction=Direction.LISTENING)
    assert match_socket(f, Side.RESPONDER, s6) is MatchQuality.PARTIAL


def test_protocol_mismatch_never_matches():
    f = FlowTuple(A, 4000, B, 443, Proto.UDP)
    s = sock(local=(A, 4000), remote=(B, 443), proto=Proto.TCP)
    assert match_socket(f, Side.ORIGINATOR, s) is MatchQuality.NONE


def test_icmp_never_matches_sockets():
    f = FlowTuple(A, 0, B, 0, Proto.ICMP)
    s = sock(local=(A, 0), remote=(B, 0))
    assert match_socket(f, Side.ORIGINATOR, s) is MatchQuality.NONE
    assert match_socket(f, Side.RESPONDER, s) is MatchQuality.NONE


def test_present_but_wrong_local_endpoint_is_none():
    f = FlowTuple(A, 4000, B, 443, Proto.TCP)
    s = sock(local=(A, 4001), remote=(B, 443))
    assert match_socket(f, Side.ORIGINATOR, s) is MatchQuality.NONE


def test_responder_exact_match():
    f = FlowTuple(A, 4000, B, 443, Proto.TCP)
    s = sock(local=(B, 443), remote=(A, 4000), direction=Direction.INCOMING)
    assert match_socket(f, Side.RESPONDER, s) is MatchQuality.EXACT


# --- exhaustive truth-table comparison ---------------------------------------

def test_matches_truth_table_oracle_exhaustively():
    f = FlowTuple(A, 4000, B, 443, Proto.TCP)
    endpoint_choices = [None, (A, 4000), (B, 443), (C, 9999), (A, 443),
                        ("0.0.0.0", 443), ("0.0.0.0", 4000)]
    count = 0
    for local, remote, proto, side in itertools.product(
            endpoint_choices, endpoint_choices, list(Proto), list(Side)):
        s = sock(local=local, remote=remote, proto=proto)
        assert match_socket(f, side, s) is oracle_match(f, side, s), \
            (local, remote, proto, side)
        count += 1
    assert count == 7 * 7 * 3 * 2


endpoints = st.one_of(st.none(), st.tuples(addrs, ports))


@st.composite
def sockets(draw):
    return sock(local=draw(endpoints), remote=draw(endpoints),
                proto=draw(protos))


@given(flows(), sockets(), st.sampled_from(list(Side)))
@settings(max_examples=300)
def test_matches_truth_table_oracle_randomized(f, s, side):
    assert match_socket(f, side, s) is oracle_match(f, side, s)


# --- invariants ---------------------------------------------------------------

def peer_view(s: SocketInfo) -> SocketInfo:
    """The same connection as seen from the other endpoint: local and remote
    endpoints swap and the direction flips."""
    flipped = {Direction.OUTGOING: Direction.INCOMING,
               Direction.INCOMING: Direction.OUTGOING,
               Direction.LISTENING: Direction.OUTGOING}[s.direction]
    return SocketInfo(
        host=s.host, pid=s.pid, fd=s.fd, proto=s.proto,
        direction=flipped, source=s.source,
        local_addr=s.remote_addr, local_port=s.remote_port,
        remote_addr=s.local_addr, remote_port=s.local_port,
        first_seen=s.first_seen, last_verified=s.last_verified,
    )


@given(flows(), sockets())
@settings(max_examples=300)
def test_originator_equals_responder_under_peer_view(f, s):
    # The same connection seen from the other host (endpoints swapped) must
    # grade identically on the opposite side.
    assert match_socket(f, Side.ORIGINATOR, s) == match_socket(f, Side.RESPONDER, peer_view(s))


@given(flows(), sockets())
@settings(max_examples=300)
def test_exact_tier_agrees_on_inverted_flow(f, s):
    orig_exact = match_socket(f, Side.ORIGINATOR, s) is MatchQuality.EXACT
    resp_exact = match_socket(invert(f), Side.RESPONDER, s) is MatchQuality.EXACT
    assert orig_exact == resp_exact


@given(flows(), sockets(), st.sampled_from(list(Side)))
@settings(max_examples=300)
def test_exact_dominates_partial_when_masked(f, s, side):
    if match_socket(f, side, s) is not MatchQuality.EXACT:
        return
    masked_field = "local" if side is Side.ORIGINATOR else "remote"
    if masked_field == "local":
        masked = sock(local=None, remote=(s.remote_addr, s.remote_port), proto=s.proto)
    else:
        masked = sock(local=(s.local_addr, s.local_port), remote=None, proto=s.proto)
    assert match_socket(f, side, masked) in (MatchQuality.EXACT, MatchQuality.PARTIAL)


# --- address canonicalization -------------------------------------------------

def test_ipv4_mapped_ipv6_canonicalizes():
    assert canonical_addr("::ffff:10.0.0.1") == "10.0.0.1"
    assert canonical_addr("2001:db8::1") == "2001:db8::1"
    assert canonical_addr("10.0.0.1") == "10.0.0.1"


def test_mapped_address_matches_after_canonicalization():
    f = FlowTuple(A, 4000, B, 443, Proto.TCP)
    s = sock(local=("::ffff:10.0.0.1", 4000), remote=("::ffff:10.0.0.2", 443))
    assert match_socket(f, Side.ORIGINATOR, s) is MatchQuality.EXACT


def test_flow_tuple_roundtrips_through_dict():
    f = FlowTuple(A, 4000, B, 443, Proto.TCP)
    assert FlowTuple.from_dict(f.to_dict()) == f
