"""Attribution tests, cross-checked against a brute-force matcher that walks
every socket on every host with no indexing or pruning shortcuts."""

from __future__ import annotations

import collections
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    iface_ev,
    make_proc,
    make_sock,
    make_user,
    proc_ev,
    snapshot,
    sock_ev,
    user_ev,
)
from flowlink import correlate
from flowlink.correlate import (
    EXEC_AMBIGUITY_WINDOW,
    UNATTRIBUTED,
    UNIQUE,
    VAGUE,
    AddressIndex,
    AttributionMetrics,
    AttributionResult,
    Candidate,
    Correlator,
    attribute,
)
from flowlink.model import (
    Action,
    Direction,
    FlowTuple,
    InterfaceRecord,
    MatchQuality,
    Proto,
    Side,
    Source,
    TableKind,
    match_socket,
)
from flowlink.runtime import EventLoop
from flowlink.state import HostStateStore

A, B, C = "10.0.0.1", "10.0.0.2", "10.0.0.3"


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


def fixture(hosts=("h1",)):
    clock = FakeClock()
    store = HostStateStore(clock)
    for h in hosts:
        store.handle_reconnect(h)
    return store, store.index, clock


def wire(store, host, addr):
    store.apply_event(iface_ev(host, addr))


def flow(orig=(A, 4000), resp=(B, 443), proto=Proto.TCP):
    return FlowTuple(orig[0], orig[1], resp[0], resp[1], proto)


# --- AddressIndex -----------------------------------------------------------

def test_index_add_lookup_remove():
    idx = AddressIndex()
    idx.add("h1", A)
    idx.add("h2", A)
    assert idx.hosts_for(A) == {"h1", "h2"}
    idx.remove("h1", A)
    assert idx.hosts_for(A) == {"h2"}
    idx.remove("h2", A)
    assert idx.hosts_for(A) == frozenset()


def test_index_canonicalizes_mapped_ipv6():
    idx = AddressIndex()
    idx.add("h1", "::ffff:10.0.0.1")
    assert idx.hosts_for(A) == {"h1"}


def test_index_tracks_store_changes():
    store, idx, _ = fixture()
    wire(store, "h1", A)
    assert idx.hosts_for(A) == {"h1"}
    store.apply_event(iface_ev("h1", A, action=Action.REMOVED, t=2.0))
    assert idx.hosts_for(A) == frozenset()


def test_index_host_removal_clears_addresses():
    store, idx, clock = fixture()
    wire(store, "h1", A)
    clock.t = 10.0
    store.expire(store.handle_disconnect("h1"))
    assert idx.hosts_for(A) == frozenset()


def test_index_reconnect_clears_addresses():
    store, idx, _ = fixture()
    wire(store, "h1", A)
    store.handle_reconnect("h1")
    assert idx.hosts_for(A) == frozenset()
    wire(store, "h1", B)
    assert idx.hosts_for(B) == {"h1"} and idx.hosts_for(A) == frozenset()


def test_disconnected_host_attributes_until_grace_expires():
    # frozen state stays readable for late attribution: the index keeps the
    # host's addresses through the grace period
    store, idx, clock = fixture()
    wire(store, "h1", A)
    store.apply_event(proc_ev(make_proc(pid=100, binary="/usr/bin/curl")))
    store.apply_event(sock_ev(make_sock(pid=100, fd=5, local=(A, 4000), remote=(B, 443))))
    before = attribute(flow(), 1.0, 2.0, idx, store)
    assert [c.pid for c in before.originator] == [100]
    clock.t = 10.0
    frozen = store.handle_disconnect("h1")
    during = attribute(flow(), 1.0, 2.0, idx, store)
    assert during.originator == before.originator
    assert during.originator_hosts == {"h1"}
    store.expire(frozen)
    after = attribute(flow(), 1.0, 2.0, idx, store)
    assert after.originator == () and after.originator_hosts == frozenset()


# --- attribute() examples -----------------------------------------------------

def test_unique_exact_attribution():
    store, idx, _ = fixture()
    wire(store, "h1", A)
    store.apply_event(proc_ev(make_proc(pid=100, binary="/usr/bin/curl", uid=1000)))
    store.apply_event(user_ev(make_user(uid=1000, name="alice")))
    store.apply_event(sock_ev(make_sock(pid=100, fd=5, local=(A, 4000), remote=(B, 443))))
    res = attribute(flow(), 1.0, 2.0, idx, store)
    assert res.side_status(Side.ORIGINATOR) == UNIQUE
    c = res.originator[0]
    assert (c.host, c.pid, c.binary_path, c.uid, c.user_name) == \
        ("h1", 100, "/usr/bin/curl", 1000, "alice")
    assert c.quality is MatchQuality.EXACT


def test_partial_when_local_endpoint_unknown():
    store, idx, _ = fixture()
    wire(store, "h1", A)
    store.apply_event(proc_ev(make_proc(pid=100)))
    store.apply_event(sock_ev(make_sock(pid=100, fd=5, remote=(B, 443))))
    res = attribute(flow(), 1.0, 2.0, idx, store)
    assert res.originator[0].quality is MatchQuality.PARTIAL
    assert res.side_status(Side.ORIGINATOR) == UNIQUE  # one entity, still unique


def test_exact_dominates_partial():
    store, idx, _ = fixture()
    wire(store, "h1", A)
    store.apply_event(proc_ev(make_proc(pid=100, binary="/bin/a")))
    store.apply_event(proc_ev(make_proc(pid=200, binary="/bin/b", start=1.5), t=1.5))
    store.apply_event(sock_ev(make_sock(pid=100, fd=5, local=(A, 4000), remote=(B, 443))))
    store.apply_event(sock_ev(make_sock(pid=200, fd=6, remote=(B, 443)), t=1.6))
    res = attribute(flow(), 1.0, 2.0, idx, store)
    assert [c.pid for c in res.originator] == [100]


def test_duplicate_address_claim_yields_vague():
    # two hosts both claim A (address reuse); both have a matching socket
    store, idx, _ = fixture(hosts=("h1", "h2"))
    for h in ("h1", "h2"):
        wire(store, h, A)
        store.apply_event(proc_ev(make_proc(host=h, pid=100, binary=f"/bin/{h}")))
        store.apply_event(sock_ev(make_sock(host=h, pid=100, fd=5,
                                            local=(A, 4000), remote=(B, 443))))
    res = attribute(flow(), 1.0, 2.0, idx, store)
    assert res.side_status(Side.ORIGINATOR) == VAGUE
    assert {c.host for c in res.originator} == {"h1", "h2"}


def test_two_monitored_hosts_both_sides():
    store, idx, _ = fixture(hosts=("h1", "h2"))
    wire(store, "h1", A)
    wire(store, "h2", B)
    store.apply_event(proc_ev(make_proc(host="h1", pid=100, binary="/usr/bin/ssh")))
    store.apply_event(sock_ev(make_sock(host="h1", pid=100, fd=5,
                                        local=(A, 4000), remote=(B, 22))))
    store.apply_event(proc_ev(make_proc(host="h2", pid=300, binary="/usr/sbin/sshd")))
    store.apply_event(sock_ev(make_sock(host="h2", pid=300, fd=7,
                                        direction=Direction.INCOMING,
                                        local=(B, 22), remote=(A, 4000))))
    res = attribute(flow(resp=(B, 22)), 1.0, 2.0, idx, store)
    assert res.side_status(Side.ORIGINATOR) == UNIQUE
    assert res.side_status(Side.RESPONDER) == UNIQUE
    assert res.responder[0].binary_path == "/usr/sbin/sshd"


def test_listening_wildcard_matches_responder():
    store, idx, _ = fixture()
    wire(store, "h1", B)
    store.apply_event(proc_ev(make_proc(pid=300, binary="/usr/sbin/nginx")))
    store.apply_event(sock_ev(make_sock(pid=300, fd=4, direction=Direction.LISTENING,
                                        local=("0.0.0.0", 443))))
    res = attribute(flow(), 1.0, 2.0, idx, store)
    assert res.side_status(Side.RESPONDER) == UNIQUE
    assert res.responder[0].quality is MatchQuality.PARTIAL


def test_icmp_is_never_attributed():
    store, idx, _ = fixture()
    wire(store, "h1", A)
    store.apply_event(sock_ev(make_sock(pid=100, fd=5, local=(A, 0), remote=(B, 0))))
    res = attribute(flow(orig=(A, 0), resp=(B, 0), proto=Proto.ICMP), 1.0, 2.0, idx, store)
    assert res.status() == UNATTRIBUTED
    assert res.originator_hosts == {"h1"}  # host resolution still works


def test_unknown_process_yields_bare_candidate():
    store, idx, _ = fixture()
    wire(store, "h1", A)
    store.apply_event(sock_ev(make_sock(pid=777, fd=5, local=(A, 4000), remote=(B, 443))))
    res = attribute(flow(), 1.0, 2.0, idx, store)
    c = res.originator[0]
    assert (c.pid, c.binary_path, c.uid, c.user_name) == (777, "", None, "")


def test_exec_transition_adds_prior_image_when_ambiguous():
    store, idx, _ = fixture()
    wire(store, "h1", A)
    store.apply_event(proc_ev(make_proc(pid=100, start=1.0, binary="/bin/sh", uid=0)))
    store.apply_event(proc_ev(make_proc(pid=100, start=1.0, binary="/usr/bin/wget", uid=0)),)
    # socket created within the ambiguity window of the exec
    seen = 1.0 + EXEC_AMBIGUITY_WINDOW / 2
    store.apply_event(sock_ev(make_sock(pid=100, fd=5, local=(A, 4000), remote=(B, 443),
                                        first_seen=seen)))
    res = attribute(flow(), 1.0, 2.0, idx, store)
    assert {c.binary_path for c in res.originator} == {"/bin/sh", "/usr/bin/wget"}
    assert res.side_status(Side.ORIGINATOR) == VAGUE


def test_exec_transition_ignored_outside_window():
    store, idx, _ = fixture()
    wire(store, "h1", A)
    store.apply_event(proc_ev(make_proc(pid=100, start=1.0, binary="/bin/sh", uid=0)))
    store.apply_event(proc_ev(make_proc(pid=100, start=1.0, binary="/usr/bin/wget", uid=0)))
    seen = 1.0 + 2 * EXEC_AMBIGUITY_WINDOW
    store.apply_event(sock_ev(make_sock(pid=100, fd=5, local=(A, 4000), remote=(B, 443),
                                        first_seen=seen), t=seen))
    res = attribute(flow(), 1.0, 6.0, idx, store)
    assert {c.binary_path for c in res.originator} == {"/usr/bin/wget"}


def test_candidates_ordered_newest_socket_first():
    store, idx, _ = fixture()
    wire(store, "h1", A)
    store.apply_event(proc_ev(make_proc(pid=100, binary="/bin/old")))
    store.apply_event(proc_ev(make_proc(pid=200, binary="/bin/new", start=2.0), t=2.0))
    store.apply_event(sock_ev(make_sock(pid=100, fd=5, remote=(B, 443), first_seen=1.0)))
    store.apply_event(sock_ev(make_sock(pid=200, fd=6, remote=(B, 443), first_seen=2.0), t=2.0))
    res = attribute(flow(), 1.0, 3.0, idx, store)
    assert [c.pid for c in res.originator] == [200, 100]


# --- brute-force oracle -------------------------------------------------------

def oracle_attribute(flow_t, side, all_views, index_map):
    """Candidate set via exhaustive scan: no ordering, no index structure."""
    addr = flow_t.orig_addr if side is Side.ORIGINATOR else flow_t.resp_addr
    hosts = index_map.get(addr, set())
    exact, partial = set(), set()
    if flow_t.proto is Proto.ICMP:
        return set()
    for host in hosts:
        view = all_views.get(host)
        if view is None:
            continue
        for sock in view.sockets.values():
            q = match_socket(flow_t, side, sock)
            if q is MatchQuality.NONE:
                continue
            proc = view.processes.get(sock.pid)
            binary = proc.binary_path if proc else ""
            uid = proc.uid if proc else None
            (exact if q is MatchQuality.EXACT else partial).add(
                (host, sock.pid, binary, uid, q))
    return exact if exact else partial


def build_random_world(seed):
    rng = random.Random(seed)
    store, idx, _ = fixture(hosts=())
    addrs = [f"10.1.0.{i}" for i in range(1, 6)]
    hosts = [f"h{i}" for i in range(1, 5)]
    for h in hosts:
        store.handle_reconnect(h)
        for a in rng.sample(addrs, rng.randint(1, 2)):
            store.apply_event(iface_ev(h, a))
        for pid in rng.sample(range(100, 120), rng.randint(1, 4)):
            store.apply_event(proc_ev(make_proc(
                host=h, pid=pid, binary=rng.choice(["/bin/a", "/bin/b", "/bin/c"]),
                uid=rng.choice([0, 1000]))))
            for fd in range(rng.randint(0, 3)):
                local = rng.choice([None, (rng.choice(addrs), rng.choice([80, 443, 4000])),
                                    ("0.0.0.0", rng.choice([80, 443]))])
                remote = rng.choice([None, (rng.choice(addrs), rng.choice([80, 443, 4000]))])
                if local is None and remote is None:
                    continue
                direction = (Direction.LISTENING if remote is None
                             else Direction.OUTGOING if rng.random() < 0.5
                             else Direction.INCOMING)
                store.apply_event(sock_ev(make_sock(
                    host=h, pid=pid, fd=3 + fd, proto=rng.choice([Proto.TCP, Proto.UDP]),
                    direction=direction, local=local, remote=remote,
                    first_seen=rng.uniform(0.5, 5.0))))
    views = {h: store.view(h) for h in hosts}
    index_map = {}
    for h in hosts:
        for a in views[h].addresses:
            index_map.setdefault(a, set()).add(h)
    return store, idx, views, index_map, addrs, rng


@pytest.mark.parametrize("seed", range(12))
def test_attribution_matches_brute_force(seed):
    store, idx, views, index_map, addrs, rng = build_random_world(seed)
    for _ in range(50):
        f = FlowTuple(rng.choice(addrs), rng.choice([80, 443, 4000, 5000]),
                      rng.choice(addrs), rng.choice([80, 443, 4000, 5000]),
                      rng.choice([Proto.TCP, Proto.UDP]))
        res = attribute(f, 1.0, 6.0, idx, store)
        for side in Side:
            got = {(c.host, c.pid, c.binary_path, c.uid, c.quality)
                   for c in res.side_candidates(side)}
            assert got == oracle_attribute(f, side, views, index_map), (f, side)


# --- Correlator -----------------------------------------------------------------

def make_correlator(retry_window=2.0, max_parked=10_000):
    loop = EventLoop()
    store = HostStateStore(loop.now)
    results: list[AttributionResult] = []
    corr = Correlator(store, results.append, scheduler=loop,
                      retry_window=retry_window, max_parked=max_parked)
    store.add_listener(corr.on_state_change)
    return loop, store, store.index, corr, results


def test_immediate_emit_when_candidates_exist():
    loop, store, idx, corr, results = make_correlator()
    store.handle_reconnect("h1")
    wire(store, "h1", A)
    store.apply_event(proc_ev(make_proc(pid=100)))
    store.apply_event(sock_ev(make_sock(pid=100, fd=5, local=(A, 4000), remote=(B, 443))))
    corr.submit(flow(), 1.0, 2.0)
    assert len(results) == 1 and results[0].side_status(Side.ORIGINATOR) == UNIQUE
    assert corr.parked_count == 0


def test_unmonitored_flow_emitted_without_parking():
    loop, store, idx, corr, results = make_correlator()
    corr.submit(flow(orig=("192.168.9.9", 1), resp=("192.168.9.8", 2)), 1.0, 2.0)
    assert len(results) == 1 and results[0].status() == UNATTRIBUTED
    assert corr.counters["parked"] == 0


def test_parked_flow_resolves_on_late_telemetry():
    loop, store, idx, corr, results = make_correlator()
    store.handle_reconnect("h1")
    wire(store, "h1", A)
    corr.submit(flow(), 1.0, 2.0)
    assert results == [] and corr.parked_count == 1
    loop.run_until(0.5)
    store.apply_event(proc_ev(make_proc(pid=100, binary="/usr/bin/curl")))
    store.apply_event(sock_ev(make_sock(pid=100, fd=5, local=(A, 4000), remote=(B, 443))))
    assert len(results) == 1
    assert results[0].side_status(Side.ORIGINATOR) == UNIQUE
    assert corr.parked_count == 0
    # the process start is not retried; the socket is, once
    assert corr.counters["retry_attempts"] == 1
    assert corr.counters["retry_resolved"] == 1
    loop.run_until_idle()
    assert len(results) == 1  # the park's timer finds nothing due; no double emit


def test_one_batch_emits_the_flows_it_decides_in_park_order():
    """Parked TCP then UDP, and one snapshot lists the UDP socket first; and
    the mirror: UDP then TCP, the TCP socket listed first.  Both flows are
    decided by that batch and leave the park in the order they entered it."""
    tcp = flow()
    udp = flow(orig=(A, 5353), resp=(B, 53), proto=Proto.UDP)
    tcp_sock = make_sock(pid=100, fd=5, local=(A, 4000), remote=(B, 443))
    udp_sock = make_sock(pid=200, fd=6, proto=Proto.UDP, local=(A, 5353), remote=(B, 53))
    for parked, rows in (([tcp, udp], [udp_sock, tcp_sock]),
                         ([udp, tcp], [tcp_sock, udp_sock])):
        loop, store, idx, corr, results = make_correlator()
        store.handle_reconnect("h1")
        wire(store, "h1", A)
        for f in parked:
            corr.submit(f, 1.0, 2.0)
        assert results == [] and corr.parked_count == 2
        store.merge_snapshot(snapshot("h1", TableKind.PROCESS_OPEN_SOCKETS, rows))
        assert [r.flow for r in results] == parked
        assert all(r.side_status(Side.ORIGINATOR) == UNIQUE for r in results)


def test_socket_change_retries_only_while_its_protocol_is_parked():
    """With only a UDP flow parked, a TCP socket on its host cannot decide
    it and runs no retry; the UDP socket that explains it does."""
    loop, store, idx, corr, results = make_correlator()
    store.handle_reconnect("h1")
    wire(store, "h1", A)
    udp = flow(orig=(A, 5353), resp=(B, 53), proto=Proto.UDP)
    corr.submit(udp, 1.0, 2.0)
    assert corr.parked_by_proto == {"udp": 1}
    store.apply_event(sock_ev(make_sock(pid=100, fd=5, local=(A, 4000), remote=(B, 443))))
    assert corr.counters["retry_attempts"] == 0
    assert results == [] and corr.parked_count == 1
    store.apply_event(sock_ev(make_sock(pid=200, fd=6, proto=Proto.UDP,
                                        local=(A, 5353), remote=(B, 53))))
    assert corr.counters["retry_attempts"] == corr.counters["retry_resolved"] == 1
    assert [r.flow for r in results] == [udp]
    assert results[0].side_status(Side.ORIGINATOR) == UNIQUE
    assert corr.parked_by_proto == {}


def test_parked_flow_expires_at_deadline():
    loop, store, idx, corr, results = make_correlator(retry_window=2.0)
    store.handle_reconnect("h1")
    wire(store, "h1", A)
    corr.submit(flow(), 1.0, 2.0)
    loop.run_until(1.9)
    assert results == []
    loop.run_until(2.1)
    assert len(results) == 1 and results[0].status() == UNATTRIBUTED
    assert corr.counters["retry_expired"] == 1


def test_irrelevant_change_does_not_resolve():
    loop, store, idx, corr, results = make_correlator()
    store.handle_reconnect("h1")
    store.handle_reconnect("h2")
    wire(store, "h1", A)
    wire(store, "h2", C)
    corr.submit(flow(), 1.0, 2.0)
    store.apply_event(proc_ev(make_proc(host="h2", pid=50)))
    assert results == [] and corr.parked_count == 1


def test_address_claim_resolves_parked_flow_at_that_change():
    # h1 claims A but holds no matching socket; h2 already holds the matching
    # socket but does not claim A yet.  Claiming A decides the flow at once.
    loop, store, idx, corr, results = make_correlator()
    store.handle_reconnect("h1")
    store.handle_reconnect("h2")
    wire(store, "h1", A)
    wire(store, "h2", C)
    store.apply_event(proc_ev(make_proc(host="h2", pid=200, binary="/usr/bin/curl")))
    store.apply_event(sock_ev(make_sock(host="h2", pid=200, fd=5,
                                        local=(A, 4000), remote=(B, 443))))
    corr.submit(flow(), 1.0, 2.0)
    assert results == [] and corr.parked_count == 1
    loop.run_until(0.5)
    wire(store, "h2", A)
    assert len(results) == 1 and corr.parked_count == 0
    res = results[0]
    assert [(c.host, c.pid) for c in res.originator] == [("h2", 200)]
    assert res.originator_hosts == {"h1", "h2"}
    assert res.decided_at == 0.5
    assert corr.counters["retry_resolved"] == 1


def test_changes_that_cannot_decide_skip_attribution(monkeypatch):
    loop, store, idx, corr, results = make_correlator()
    store.handle_reconnect("h1")
    wire(store, "h1", A)
    store.apply_event(proc_ev(make_proc(pid=100)))
    store.apply_event(sock_ev(make_sock(pid=100, fd=7, local=(A, 5000), remote=(C, 80))))
    corr.submit(flow(), 1.0, 2.0)
    assert corr.parked_count == 1
    calls = []
    original = correlate.attribute

    def counting_attribute(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)
    monkeypatch.setattr(correlate, "attribute", counting_attribute)
    store.apply_event(proc_ev(make_proc(pid=101)))                      # process start
    store.apply_event(proc_ev(make_proc(pid=100), action=Action.REMOVED))  # process exit
    store.apply_event(sock_ev(make_sock(pid=100, fd=7), action=Action.REMOVED))  # close
    assert calls == []
    assert corr.counters["retry_attempts"] == 0
    assert results == [] and corr.parked_count == 1


def test_parked_overflow_evicts_oldest():
    loop, store, idx, corr, results = make_correlator(max_parked=3)
    store.handle_reconnect("h1")
    wire(store, "h1", A)
    for port in range(4000, 4005):
        corr.submit(flow(orig=(A, port)), 1.0, 2.0)
    assert corr.parked_count == 3
    assert corr.counters["parked_evicted"] == 2
    assert len(results) == 2  # evicted flows were emitted, not dropped


def test_flush_emits_all_parked_exactly_once():
    loop, store, idx, corr, results = make_correlator()
    store.handle_reconnect("h1")
    wire(store, "h1", A)
    for port in range(4000, 4004):
        corr.submit(flow(orig=(A, port)), 1.0, 2.0)
    corr.flush()
    assert len(results) == 4 and corr.parked_count == 0
    loop.run_until_idle()
    assert len(results) == 4


def test_every_submission_emits_exactly_once():
    rng = random.Random(42)
    loop, store, idx, corr, results = make_correlator()
    store.handle_reconnect("h1")
    wire(store, "h1", A)
    n = 0
    for i in range(200):
        if rng.random() < 0.4:
            store.apply_event(sock_ev(make_sock(
                pid=100 + i, fd=5, local=(A, 4000 + i), remote=(B, 443),
                first_seen=loop.now()), t=loop.now()))
        corr.submit(flow(orig=(A, 4000 + rng.randint(0, 300))), loop.now(), loop.now())
        n += 1
        loop.run_until(loop.now() + rng.uniform(0.0, 0.8))
    loop.run_until_idle()
    corr.flush()
    assert len(results) == n
    assert corr.counters["emitted"] == n


# --- retry filter vs. retry-everything (differential property) --------------------


class RetryEverythingCorrelator(Correlator):
    """Retries every parked flow after every state change of any kind, with no
    relevance filter.  The oracle for the differential test below."""

    def on_state_change(self, change):
        for pid in list(self._parked):
            entry = self._parked.get(pid)
            if entry is None:
                continue
            result = self._attribute(entry.flow, entry.flow_start, entry.flow_end,
                                     entry.tag)
            if not self._should_park(result):
                self._release(pid, "retry_resolved", result)


class PerFlowTimerCorrelator:
    """The park before it kept its own deadlines, kept as the reference: one
    heap timer per parked flow, cancelled when the flow leaves early, and
    one exit path per way out."""

    _should_park = Correlator._should_park
    parked_count = Correlator.parked_count

    def __init__(self, store, emit, scheduler, retry_window, max_parked):
        self.store = store
        self.index = store.index
        self.emit = emit
        self.scheduler = scheduler
        self.retry_window = retry_window
        self.max_parked = max_parked
        self._parked = collections.OrderedDict()
        self._next_id = 0
        self.counters = collections.Counter()

    def submit(self, flow, flow_start, flow_end, tag=None):
        now = self._now()
        result = attribute(flow, flow_start, flow_end, self.index, self.store,
                           decided_at=now)
        if self.retry_window > 0 and self._should_park(result):
            self._park(flow, flow_start, flow_end, tag)
            return
        self._finish(replace(result, tag=tag))

    def _park(self, flow, flow_start, flow_end, tag=None):
        while len(self._parked) >= self.max_parked:
            _, oldest = self._parked.popitem(last=False)
            self._cancel_timer(oldest)
            self.counters["parked_evicted"] += 1
            self._finalize(oldest)
        pid = self._next_id
        self._next_id += 1
        entry = {"flow": flow, "flow_start": flow_start, "flow_end": flow_end,
                 "tag": tag}
        entry["timer"] = self.scheduler.call_later(
            self.retry_window, self._on_deadline, pid)
        self._parked[pid] = entry
        self.counters["parked"] += 1

    def on_state_change(self, change):
        if not self._parked:
            return
        kind = change.kind
        host, addr = change.host, change.key
        for pid in list(self._parked):
            entry = self._parked.get(pid)
            if entry is None:
                continue
            flow = entry["flow"]
            if kind == "address":
                relevant = addr == flow.orig_addr or addr == flow.resp_addr
            else:
                relevant = (host in self.index.hosts_for(flow.orig_addr)
                            or host in self.index.hosts_for(flow.resp_addr))
            if not relevant:
                continue
            self.counters["retry_attempts"] += 1
            result = attribute(flow, entry["flow_start"], entry["flow_end"],
                               self.index, self.store, decided_at=self._now())
            if not self._should_park(result):
                self._unpark(pid)
                self.counters["retry_resolved"] += 1
                self._finish(replace(result, tag=entry["tag"]))

    def _on_deadline(self, pid):
        entry = self._parked.pop(pid, None)
        if entry is None:
            return
        self.counters["retry_expired"] += 1
        self._finalize(entry)

    def flush(self):
        for pid in list(self._parked):
            entry = self._parked.pop(pid)
            self._cancel_timer(entry)
            self.counters["flushed"] += 1
            self._finalize(entry)

    def _finalize(self, entry):
        result = attribute(entry["flow"], entry["flow_start"], entry["flow_end"],
                           self.index, self.store, decided_at=self._now())
        self._finish(replace(result, tag=entry["tag"]))

    def _finish(self, result):
        self.counters["emitted"] += 1
        self.emit(result)

    def _unpark(self, pid):
        entry = self._parked.pop(pid, None)
        if entry is not None:
            self._cancel_timer(entry)

    def _cancel_timer(self, entry):
        if entry["timer"] is not None:
            self.scheduler.cancel(entry["timer"])
            entry["timer"] = None

    def _now(self):
        return self.scheduler.now()


D_HOSTS = ("h1", "h2", "h3")
D_ADDRS = (A, B, "::ffff:10.0.0.1")   # the last one canonicalizes to A
D_EXTERNAL = "203.0.113.9"
d_hosts = st.sampled_from(D_HOSTS)
d_pids = st.sampled_from([100, 101])
d_protos = st.sampled_from([Proto.TCP, Proto.TCP, Proto.UDP])
d_actions = st.sampled_from([Action.ADDED, Action.REMOVED])
# telemetry and flows dominate; lifecycle changes finalize parked flows, so
# they come less often
d_op_names = st.sampled_from(
    ["reconnect", "disconnect", "expire", "proc", "user", "snapshot", "verify"]
    + ["iface"] + ["advance"] * 2 + ["claim"] * 3 + ["flow"] * 4 + ["sock"] * 5)
d_flows = st.builds(FlowTuple, st.sampled_from((A, B)), st.sampled_from((4000, 4001)),
                    st.sampled_from((B, D_EXTERNAL)), st.just(443), d_protos)


@st.composite
def d_proc(draw, host):
    return make_proc(host=host, pid=draw(d_pids), start=draw(st.sampled_from([1.0, 2.0])),
                     binary=draw(st.sampled_from(["/bin/a", "/bin/b"])),
                     uid=draw(st.sampled_from([0, 1000])))


@st.composite
def d_sock(draw, host, flows, claims=None):
    """A socket that explains one side of an earlier flow (exactly, or
    partially with one endpoint censored), or one that explains nothing.
    For a socket that explains a side, `claims` gets (host, that side's
    address): the host would become a candidate by claiming it."""
    f = draw(st.sampled_from(flows)) if flows else None
    shape = draw(st.integers(0, 4 if f else 0))
    proto = f.proto if f and draw(st.booleans()) else draw(d_protos)
    local, remote = (A, 5000), (D_EXTERNAL, 80)
    if shape == 1:
        local, remote = (f.orig_addr, f.orig_port), (f.resp_addr, f.resp_port)
    elif shape == 2:
        local, remote = None, (f.resp_addr, f.resp_port)
    elif shape == 3:
        local, remote = (draw(st.sampled_from((f.resp_addr, "0.0.0.0"))), f.resp_port), None
    elif shape == 4:
        local, remote = (f.resp_addr, f.resp_port), (f.orig_addr, f.orig_port)
    if shape and claims is not None:
        claims.append((host, f.orig_addr if shape <= 2 else f.resp_addr))
    return make_sock(host=host, pid=draw(d_pids), fd=draw(st.sampled_from([3, 4])),
                     proto=proto, local=local, remote=remote,
                     first_seen=draw(st.sampled_from([0.5, 1.0, 2.0])))


@st.composite
def retry_ops(draw):
    """Telemetry, lifecycle, flows and time steps, as (name, args) pairs."""
    ops = []
    flows: list[FlowTuple] = []
    claims: list[tuple[str, str]] = []
    for _ in range(draw(st.integers(0, 60))):
        h = draw(d_hosts)
        which = draw(d_op_names)
        if which in ("reconnect", "disconnect", "expire"):
            ops.append((which, h))
        elif which == "iface":
            ops.append(("event", iface_ev(h, draw(st.sampled_from(D_ADDRS)),
                                          action=draw(d_actions))))
        elif which == "proc":
            ops.append(("event", proc_ev(draw(d_proc(h)), action=draw(d_actions))))
        elif which == "sock":
            ops.append(("event", sock_ev(draw(d_sock(h, flows, claims)), action=draw(
                st.sampled_from([Action.ADDED, Action.ADDED, Action.REMOVED])))))
        elif which == "user":
            ops.append(("event", user_ev(make_user(host=h, uid=draw(
                st.sampled_from([0, 1000]))), action=draw(d_actions))))
        elif which == "snapshot":
            table, rows = draw(st.sampled_from([
                (TableKind.PROCESSES, st.lists(d_proc(h), max_size=3)),
                (TableKind.PROCESS_OPEN_SOCKETS, st.lists(d_sock(h, flows), max_size=3)),
                (TableKind.INTERFACES, st.lists(st.builds(
                    InterfaceRecord, st.just(h), st.sampled_from(D_ADDRS)), max_size=2)),
            ]))
            ops.append(("snapshot", (h, table, draw(rows))))
        elif which == "verify":
            rows = draw(st.lists(st.one_of(d_proc(h), d_sock(h, flows)), max_size=4))
            ops.append(("verify", (h, rows)))
        elif which == "claim" and claims:
            # a host that holds a flow's socket claims the flow's address
            host, addr = draw(st.sampled_from(claims))
            if addr == A:
                addr = draw(st.sampled_from((A, "::ffff:10.0.0.1")))
            ops.append(("event", iface_ev(host, addr)))
        elif which == "flow":
            flows.append(draw(d_flows))
            ops.append(("flow", flows[-1]))
        else:
            ops.append(("advance", draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5]))))
    return ops


class WatchedLoop(EventLoop):
    """An `EventLoop` that counts cancels and the most park deadline timers
    ever pending at once."""

    def __init__(self):
        super().__init__()
        self.cancels = 0
        self.most_park_timers = 0

    def call_at(self, when, fn, *args):
        handle = super().call_at(when, fn, *args)
        pending = sum(1 for h in self._heap
                      if not h.cancelled and h.fn.__name__ == "_on_deadline")
        self.most_park_timers = max(self.most_park_timers, pending)
        return handle

    def cancel(self, handle):
        self.cancels += 1
        super().cancel(handle)


def run_retry_world(correlator_cls, ops, max_parked):
    """Results in emission order, the correlator and its loop."""
    loop = WatchedLoop()
    store = HostStateStore(loop.now)
    frozen = []     # each state a disconnect froze, in order
    results: list[AttributionResult] = []
    corr = correlator_cls(store, results.append, scheduler=loop,
                          retry_window=2.0, max_parked=max_parked)
    store.add_listener(corr.on_state_change)
    for host in D_HOSTS:
        store.handle_reconnect(host)
    store.apply_event(iface_ev("h1", A, t=0.0))
    store.apply_event(iface_ev("h2", B, t=0.0))
    for i, (name, arg) in enumerate(ops):
        now = loop.now()
        if name == "reconnect":
            store.handle_reconnect(arg)
        elif name == "disconnect":
            st = store.handle_disconnect(arg)
            if st is not None:
                frozen.append(st)
        elif name == "expire":
            # the states whose 3 s grace period has run out
            while frozen and frozen[0].disconnected_at + 3.0 <= now:
                store.expire(frozen.pop(0))
        elif name == "event":
            store.apply_event(replace(arg, event_time=now))
        elif name == "snapshot":
            host, table, rows = arg
            store.merge_snapshot(snapshot(host, table, rows, batch_id=i, t=now))
        elif name == "verify":
            host, rows = arg
            store.merge_snapshot(snapshot(host, TableKind.VERIFICATION, rows,
                                          batch_id=i, t=now))
        elif name == "flow":
            corr.submit(arg, now, now + 0.1, tag=i)
        else:
            loop.run_until(now + arg)
    loop.run_until(loop.now() + 0.5)
    corr.flush()
    return results, corr, loop


@given(retry_ops(), st.sampled_from([2, 10_000]))
@settings(max_examples=300, deadline=None)
def test_filtered_retry_equals_retry_everything(ops, max_parked):
    got, _, _ = run_retry_world(Correlator, ops, max_parked)
    want, _, _ = run_retry_world(RetryEverythingCorrelator, ops, max_parked)
    assert got == want
    tags = [r.tag for r in got]
    assert sorted(tags) == [i for i, (name, _) in enumerate(ops) if name == "flow"]


@given(retry_ops(), st.sampled_from([2, 10_000]))
@settings(max_examples=300, deadline=None)
def test_one_timer_park_equals_per_flow_timers(ops, max_parked):
    """The `advance` steps add up to exact deadline ties: flows parked at one
    instant fall due together, and a flow can fall due at the instant
    another one parks."""
    got, corr, loop = run_retry_world(Correlator, ops, max_parked)
    want, _, _ = run_retry_world(PerFlowTimerCorrelator, ops, max_parked)
    assert got == want          # same results in the same order, decided_at too
    c = corr.counters
    assert c["parked"] == (c["retry_resolved"] + c["retry_expired"]
                           + c["parked_evicted"] + c["flushed"])
    assert corr.parked_count == 0
    # a count lowered twice would let a socket change skip a scan that
    # could decide a flow; it would show here as a negative count
    assert corr.parked_by_proto == {}
    assert loop.most_park_timers <= 1
    assert loop.cancels == 0


@st.composite
def parked_then_sockets(draw):
    """TCP and UDP flows from one or two hosts parked in drawn order, then
    their sockets and stray ones of either protocol, in drawn order, some in
    one `process_open_sockets` snapshot and the rest as single events.  A
    stray socket may reuse a flow socket's (pid, fd)."""
    hosts = draw(st.sampled_from([("h1",), ("h1", "h2")]))
    addr_of = {"h1": A, "h2": B}    # as `run_retry_world` wires them
    mostly = st.sampled_from([True, True, True, False])
    ops, socks = [], []
    for i in range(draw(st.integers(1, 4))):
        orig_host = draw(st.sampled_from(hosts))
        peers = [D_EXTERNAL] + [addr_of[h] for h in hosts if h != orig_host]
        f = FlowTuple(addr_of[orig_host], 4000 + i, draw(st.sampled_from(peers)), 443,
                      draw(st.sampled_from([Proto.TCP, Proto.UDP])))
        ops.append(("flow", f))
        orig, resp = (f.orig_addr, f.orig_port), (f.resp_addr, f.resp_port)
        sides = [(orig_host, orig, resp)]
        if f.resp_addr != D_EXTERNAL:
            sides.append(("h1" if f.resp_addr == A else "h2", resp, orig))
        for j, (host, local, remote) in enumerate(sides):
            if draw(mostly):
                socks.append(make_sock(host=host, pid=100 + i, fd=3 + j, proto=f.proto,
                                       local=local, remote=remote))
    for k in range(draw(st.integers(0, 3))):
        host = draw(st.sampled_from(hosts))
        socks.append(make_sock(host=host, pid=draw(st.sampled_from([100, 101, 102])),
                               fd=draw(st.sampled_from([3, 4])),
                               proto=draw(st.sampled_from([Proto.TCP, Proto.UDP])),
                               local=(addr_of[host], 6000 + k), remote=(D_EXTERNAL, 80)))
    batch_host = draw(st.sampled_from(hosts))
    rows: list = []
    for sock in draw(st.permutations(socks)):
        if sock.host == batch_host and draw(mostly):
            if not rows:    # the snapshot sits where its first row is drawn
                ops.append(("snapshot", (batch_host, TableKind.PROCESS_OPEN_SOCKETS, rows)))
            rows.append(sock)
        else:
            ops.append(("event", sock_ev(sock)))
    return ops


@given(parked_then_sockets(), st.sampled_from([2, 10_000]))
@settings(max_examples=300, deadline=None)
def test_socket_protocol_guard_equals_retry_everything(ops, max_parked):
    """Skipping the scan for a socket whose protocol no parked flow has
    decides the same flows at the same changes, in the same order."""
    got, _, _ = run_retry_world(Correlator, ops, max_parked)
    want, _, _ = run_retry_world(RetryEverythingCorrelator, ops, max_parked)
    assert got == want


# --- metrics ---------------------------------------------------------------------

def res_with(orig_cands, proto=Proto.TCP, resp_addr=B):
    f = FlowTuple(A, 4000, resp_addr, 443, proto)
    return AttributionResult(flow=f, flow_start=1.0, flow_end=2.0,
                             originator=tuple(orig_cands))


def cand(host="h1", pid=100, binary="/bin/a", uid=1000):
    return Candidate(host=host, pid=pid, binary_path=binary, uid=uid)


def test_metrics_against_one_pass_recompute():
    rng = random.Random(3)
    m = AttributionMetrics()
    results = []
    for _ in range(400):
        proto = rng.choice([Proto.TCP, Proto.UDP, Proto.ICMP])
        n = 0 if proto is Proto.ICMP else rng.randint(0, 3)
        cands = [cand(host=rng.choice(["h1", "h2"]), pid=rng.choice([100, 200]),
                      binary=rng.choice(["/bin/a", "/bin/b"]),
                      uid=rng.choice([0, 1000]))
                 for _ in range(n)]
        results.append(res_with(cands, proto=proto))
    for r in results:
        m.observe(r)

    for proto in Proto:
        sub = [r for r in results if r.flow.proto is proto]
        attributed = [r for r in sub if r.originator]
        t = m.per_proto[proto]
        assert t.flows == len(sub)
        assert t.attributed == len(attributed)
        if attributed:
            exp_unique_proc = sum(
                1 for r in attributed
                if len({c.entity_process() for c in r.originator}) == 1)
            assert t.unique_process == exp_unique_proc
            exp_avg_hosts = (sum(len({c.host for c in r.originator})
                                 for r in attributed) / len(attributed))
            assert t.avg_hosts() == pytest.approx(exp_avg_hosts)


def test_metrics_uniqueness_definitions():
    m = AttributionMetrics()
    # same pid+binary on one host, twice -> one process entity -> unique
    m.observe(res_with([cand(), cand()]))
    # two pids -> vague process, unique host
    m.observe(res_with([cand(pid=100), cand(pid=200)]))
    t = m.per_proto[Proto.TCP]
    assert t.attributed == 2
    assert t.unique_process == 1
    assert t.unique_host == 2
    assert t.avg_processes() == pytest.approx(1.5)


def test_metrics_application_ranking():
    m = AttributionMetrics()
    for _ in range(3):
        m.observe(res_with([cand(binary="/usr/bin/firefox")]))
    m.observe(res_with([cand(binary="/usr/bin/curl")]))
    m.observe(res_with([]))
    assert m.top_applications(2) == [("firefox", 3), ("curl", 1)]


def test_metrics_responder_filter():
    dns = "10.9.9.9"
    m = AttributionMetrics(filtered_responders=[dns])
    # flow to the DNS server: two processes -> vague; excluded from filtered tally
    m.observe(res_with([cand(pid=100), cand(pid=200)], proto=Proto.UDP, resp_addr=dns))
    m.observe(res_with([cand()], proto=Proto.UDP))
    assert m.per_proto[Proto.UDP].process_uniqueness() == pytest.approx(0.5)
    assert m.filtered.process_uniqueness() == pytest.approx(1.0)
    snap = m.snapshot()
    assert snap["filtered"]["flows"] == 1


def test_metrics_status_counts():
    m = AttributionMetrics()
    m.observe(res_with([cand()]))
    m.observe(res_with([cand(pid=100), cand(pid=200)]))
    m.observe(res_with([]))
    assert m.status_counts == {UNIQUE: 1, VAGUE: 1, UNATTRIBUTED: 1}
