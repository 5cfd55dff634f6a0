"""Host state assembly tests, cross-checked against a plain-dict reference
interpreter for scripted event sequences."""

from __future__ import annotations

from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ev, iface_ev, make_proc, make_sock, make_user, proc_ev, snapshot, sock_ev, user_ev
from flowlink.model import (
    Action,
    Direction,
    InterfaceRecord,
    ProcessInfo,
    Proto,
    SocketInfo,
    Source,
    TableKind,
)
from flowlink.state import (
    ExecTransition,
    HostState,
    HostStateStore,
    StateChange,
)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


def store():
    clock = FakeClock()
    s = HostStateStore(clock)
    s.handle_reconnect("h1")
    return s, clock


# --- reference interpreter ----------------------------------------------------

def reference_apply(events):
    """Straight-line interpretation of an event script: dicts in, dicts out.

    Mirrors the documented rules only (insert/overwrite, delete, endpoint
    consolidation, the last row's source, pid-reuse closing sockets), with
    none of the production code's bookkeeping.
    """
    procs: dict[int, dict] = {}
    socks: dict[tuple, dict] = {}
    users: dict[int, dict] = {}
    for e in events:
        p = e.payload
        if e.table == TableKind.PROCESS_EVENTS:
            if e.action == Action.REMOVED:
                procs.pop(p.pid, None)
            else:
                old = procs.get(p.pid)
                if old is not None and old["start_time"] != p.start_time:
                    for k in [k for k in socks if k[0] == p.pid]:
                        del socks[k]
                procs[p.pid] = {"pid": p.pid, "binary": p.binary_path,
                                "uid": p.uid, "start_time": p.start_time,
                                "source": p.source}
        elif e.table in (TableKind.SOCKET_EVENTS, TableKind.LISTENING_PORTS,
                         TableKind.PROCESS_OPEN_SOCKETS):
            if e.action == Action.REMOVED:
                socks.pop((p.pid, p.fd), None)
            else:
                key = (p.pid, p.fd)
                row = {"local": (p.local_addr, p.local_port),
                       "remote": (p.remote_addr, p.remote_port),
                       "source": p.source}
                old = socks.get(key)
                if old is not None:
                    if row["local"] == (None, None):
                        row["local"] = old["local"]
                    if row["remote"] == (None, None):
                        row["remote"] = old["remote"]
                socks[key] = row
        elif e.table == TableKind.USERS:
            if e.action == Action.REMOVED:
                users.pop(p.uid, None)
            else:
                users[p.uid] = {"uid": p.uid, "name": p.name}
    return procs, socks, users


def project(view):
    procs = {pid: {"pid": pid, "binary": pr.binary_path, "uid": pr.uid,
                   "start_time": pr.start_time, "source": pr.source}
             for pid, pr in view.processes.items()}
    socks = {key: {"local": (s.local_addr, s.local_port),
                   "remote": (s.remote_addr, s.remote_port),
                   "source": s.source}
             for key, s in view.sockets.items()}
    users = {uid: {"uid": uid, "name": u.name} for uid, u in view.users.items()}
    return procs, socks, users


# --- apply_event ---------------------------------------------------------------

def test_added_process_on_empty_state():
    s, _ = store()
    s.apply_event(proc_ev(make_proc(pid=100, binary="/bin/bash")))
    view = s.view("h1")
    assert 100 in view.processes
    assert view.processes[100].binary_path == "/bin/bash"


def test_audit_then_status_socket_consolidates():
    # audit connect lacks the local endpoint; the status probe of the same
    # (pid, fd) completes it, and the held record takes the probe's source
    s, _ = store()
    s.apply_event(sock_ev(make_sock(pid=100, fd=5, remote=("10.0.0.2", 443))))
    s.merge_snapshot(snapshot("h1", TableKind.PROCESS_OPEN_SOCKETS, [
        make_sock(pid=100, fd=5, source=Source.STATUS,
                  local=("10.0.0.1", 4000), remote=("10.0.0.2", 443)),
    ], t=2.0))
    view = s.view("h1")
    assert len(view.sockets) == 1
    got = view.sockets[(100, 5)]
    assert (got.local_addr, got.local_port) == ("10.0.0.1", 4000)
    assert (got.remote_addr, got.remote_port) == ("10.0.0.2", 443)
    assert got.source is Source.STATUS


def test_status_fields_not_degraded_by_late_audit():
    s, _ = store()
    s.merge_snapshot(snapshot("h1", TableKind.PROCESS_OPEN_SOCKETS, [
        make_sock(pid=100, fd=5, source=Source.STATUS,
                  local=("10.0.0.1", 4000), remote=("10.0.0.2", 443)),
    ]))
    s.apply_event(sock_ev(make_sock(pid=100, fd=5, remote=("10.0.0.2", 443)), t=2.0))
    got = s.view("h1").sockets[(100, 5)]
    assert got.has_local() and got.source is Source.AUDIT


def test_duplicate_removal_is_counted_noop():
    s, _ = store()
    s.apply_event(sock_ev(make_sock(pid=100, fd=5, remote=("10.0.0.2", 443))))
    s.apply_event(sock_ev(make_sock(pid=100, fd=5), action=Action.REMOVED, t=2.0))
    assert (100, 5) not in s.view("h1").sockets
    before = s.counters["late_removal_noop"]
    s.apply_event(sock_ev(make_sock(pid=100, fd=5), action=Action.REMOVED, t=3.0))
    assert s.counters["late_removal_noop"] == before + 1


def test_pid_reuse_replaces_generation_and_closes_sockets():
    s, _ = store()
    s.apply_event(proc_ev(make_proc(pid=100, start=1.0, binary="/bin/a")))
    s.apply_event(sock_ev(make_sock(pid=100, fd=5, remote=("10.0.0.2", 443))))
    s.apply_event(proc_ev(make_proc(pid=100, start=9.0, binary="/bin/b"), t=9.0))
    view = s.view("h1")
    assert view.processes[100].binary_path == "/bin/b"
    assert (100, 5) not in view.sockets


def test_execve_keeps_sockets_and_records_transition():
    s, _ = store()
    s.apply_event(proc_ev(make_proc(pid=100, start=1.0, binary="/bin/sh")))
    s.apply_event(sock_ev(make_sock(pid=100, fd=5, remote=("10.0.0.2", 443))))
    s.apply_event(proc_ev(make_proc(pid=100, start=1.0, binary="/usr/bin/curl"), t=1.05))
    view = s.view("h1")
    assert view.processes[100].binary_path == "/usr/bin/curl"
    assert (100, 5) in view.sockets
    assert len(view.exec_history[100]) == 1
    assert view.exec_history[100][0].prior.binary_path == "/bin/sh"


def test_orphaned_socket_is_kept():
    s, _ = store()
    s.apply_event(sock_ev(make_sock(pid=999, fd=3, remote=("10.0.0.2", 80))))
    view = s.view("h1")
    assert (999, 3) in view.sockets
    assert 999 not in view.processes


# --- merge_snapshot -------------------------------------------------------------

def test_initial_processes_snapshot():
    s, _ = store()
    s.merge_snapshot(snapshot("h1", TableKind.PROCESSES, [
        make_proc(pid=1, binary="/sbin/init", source=Source.STATUS),
        make_proc(pid=100, source=Source.STATUS),
    ]))
    assert set(s.view("h1").processes) == {1, 100}


def test_snapshot_after_audit_does_not_duplicate():
    s, _ = store()
    s.apply_event(proc_ev(make_proc(pid=100, start=1.0)))
    s.merge_snapshot(snapshot("h1", TableKind.PROCESSES, [
        make_proc(pid=100, start=1.0, source=Source.STATUS),
    ], t=2.0))
    assert list(s.view("h1").processes) == [100]


def test_snapshot_absence_does_not_remove():
    s, _ = store()
    s.apply_event(proc_ev(make_proc(pid=100)))
    s.merge_snapshot(snapshot("h1", TableKind.PROCESSES, [
        make_proc(pid=200, source=Source.STATUS),
    ], t=2.0))
    assert set(s.view("h1").processes) == {100, 200}


def test_stale_batch_discarded():
    s, _ = store()
    s.merge_snapshot(snapshot("h1", TableKind.PROCESSES,
                              [make_proc(pid=1, source=Source.STATUS)], batch_id=5))
    before = s.counters["stale_batch"]
    s.merge_snapshot(snapshot("h1", TableKind.PROCESSES,
                              [make_proc(pid=2, source=Source.STATUS)], batch_id=3))
    assert s.counters["stale_batch"] == before + 1
    assert set(s.view("h1").processes) == {1}


# --- verify ----------------------------------------------------------------------

def test_crashed_process_purged_by_verification():
    # crash: no exit event ever arrives, only the probe notices the absence
    s, _ = store()
    s.apply_event(proc_ev(make_proc(pid=100)))
    s.apply_event(proc_ev(make_proc(pid=200, start=2.0), t=2.0))
    s.verify(snapshot("h1", TableKind.VERIFICATION,
                      [make_proc(pid=200, start=2.0, source=Source.STATUS)], t=30.0))
    assert set(s.view("h1").processes) == {200}


def test_broken_socket_purged_process_kept():
    s, _ = store()
    s.apply_event(proc_ev(make_proc(pid=100)))
    s.apply_event(sock_ev(make_sock(pid=100, fd=5, remote=("10.0.0.2", 443))))
    s.verify(snapshot("h1", TableKind.VERIFICATION,
                      [make_proc(pid=100, source=Source.STATUS)], t=30.0))
    assert set(s.view("h1").processes) == {100}
    assert s.view("h1").sockets == {}


def test_status_rows_are_stored_as_is():
    s, _ = store()
    for t in (5.0, 10.0):   # first sighting, then over the held records
        proc = make_proc(pid=100, source=Source.STATUS)
        sock = make_sock(pid=100, fd=5, source=Source.STATUS,
                         local=("10.0.0.1", 4000), remote=("10.0.0.2", 443))
        s.merge_snapshot(snapshot("h1", TableKind.PROCESSES, [proc], batch_id=int(t), t=t))
        s.merge_snapshot(snapshot("h1", TableKind.PROCESS_OPEN_SOCKETS, [sock],
                                  batch_id=int(t), t=t))
        view = s.view("h1")
        assert view.processes[100] is proc
        assert view.sockets[(100, 5)] is sock


def test_audit_rows_needing_no_consolidation_are_stored_as_is():
    s, _ = store()
    for t in (5.0, 10.0):   # first sighting, then over the held records
        proc = make_proc(pid=100)
        sock = make_sock(pid=100, fd=5, local=("10.0.0.1", 4000),
                         remote=("10.0.0.2", 443), first_seen=1.0)
        s.apply_event(proc_ev(proc, t=t))
        s.apply_event(sock_ev(sock, t=t))
        view = s.view("h1")
        assert view.processes[100] is proc
        assert view.sockets[(100, 5)] is sock


def test_verify_keeps_every_survivor_as_the_same_record():
    s, _ = store()
    s.merge_snapshot(snapshot("h1", TableKind.PROCESSES, [
        make_proc(pid=100, source=Source.STATUS)], t=5.0))
    s.apply_event(proc_ev(make_proc(pid=200, start=2.0), t=2.0))
    s.apply_event(sock_ev(make_sock(pid=200, fd=5, remote=("10.0.0.2", 443)), t=2.0))
    s.apply_event(sock_ev(make_sock(pid=200, fd=6, remote=("10.0.0.3", 443)), t=3.0))
    held = s.view("h1")
    procs, socks = dict(held.processes), dict(held.sockets)   # view() is live state
    s.verify(snapshot("h1", TableKind.VERIFICATION, [
        make_proc(pid=100, source=Source.STATUS),
        make_proc(pid=200, start=2.0, source=Source.STATUS),
        make_sock(pid=200, fd=5, source=Source.STATUS,
                  local=("10.0.0.1", 4000), remote=("10.0.0.2", 443)),
    ], t=30.0))
    view = s.view("h1")
    assert set(view.processes) == {100, 200} and set(view.sockets) == {(200, 5)}
    assert all(view.processes[pid] is procs[pid] for pid in view.processes)
    assert view.sockets[(200, 5)] is socks[(200, 5)]


# --- the change stream ----------------------------------------------------------------

def test_rows_that_cannot_alter_an_attribution_announce_nothing():
    s, _ = store()
    s.apply_event(sock_ev(make_sock(pid=100, fd=5, remote=("10.0.0.2", 443))))
    s.apply_event(sock_ev(make_sock(pid=300, fd=7, remote=("10.0.0.3", 443))))
    s.apply_event(user_ev(make_user(uid=1000)))
    s.apply_event(proc_ev(make_proc(pid=400)))
    s.apply_event(sock_ev(make_sock(pid=400, fd=3, remote=("10.0.0.4", 443))))
    heard = []
    s.add_listener(heard.append)
    s.apply_event(proc_ev(make_proc(pid=100)))
    s.apply_event(proc_ev(make_proc(pid=100, start=4.0), t=4.0))   # pid reuse closes (100, 5)
    s.merge_snapshot(snapshot("h1", TableKind.PROCESSES,
                              [make_proc(pid=200, source=Source.STATUS)]))
    s.apply_event(proc_ev(make_proc(pid=200), action=Action.REMOVED))
    s.apply_event(user_ev(make_user(uid=1001)))
    s.merge_snapshot(snapshot("h1", TableKind.USERS, [make_user(uid=1002)]))
    s.apply_event(user_ev(make_user(uid=1000), action=Action.REMOVED))
    s.apply_event(sock_ev(make_sock(pid=300, fd=7), action=Action.REMOVED))
    s.verify(snapshot("h1", TableKind.VERIFICATION,
                      [make_proc(pid=100, start=4.0)], t=30.0))
    assert set(s.view("h1").processes) == {100} and s.view("h1").sockets == {}
    assert heard == []


def test_each_change_that_can_alter_an_attribution_is_announced_once():
    s, _ = store()
    sock = make_sock(pid=100, fd=5, remote=("10.0.0.2", 443))
    status_sock = make_sock(pid=100, fd=5, source=Source.STATUS,
                            local=("10.0.0.1", 4000), remote=("10.0.0.2", 443))
    upsert = StateChange("h1", "socket", Action.ADDED, (100, 5))
    added, removed = (StateChange("h1", "address", a, "10.0.0.1")
                      for a in (Action.ADDED, Action.REMOVED))
    down = StateChange("h1", "host", Action.REMOVED, "h1")
    frozen = []
    steps = [
        (lambda: s.apply_event(sock_ev(sock)), [upsert]),
        (lambda: s.apply_event(sock_ev(sock)), []),   # equal to the held record
        (lambda: s.apply_event(sock_ev(replace(sock, first_seen=0.5))), [upsert]),
        (lambda: s.merge_snapshot(snapshot("h1", TableKind.PROCESS_OPEN_SOCKETS,
                                           [status_sock])), [upsert]),
        (lambda: s.merge_snapshot(snapshot("h1", TableKind.PROCESS_OPEN_SOCKETS,
                                           [status_sock], batch_id=2)), []),
        (lambda: s.apply_event(iface_ev("h1", "10.0.0.1")), [added]),
        (lambda: s.apply_event(iface_ev("h1", "10.0.0.1", action=Action.REMOVED)), [removed]),
        (lambda: s.merge_snapshot(snapshot("h1", TableKind.INTERFACES,
                                           [InterfaceRecord("h1", "10.0.0.1")],
                                           batch_id=2)), [added]),
        (lambda: frozen.append(s.handle_disconnect("h1")), [down]),
        (lambda: s.handle_disconnect("h1"), []),                   # already down
        (lambda: s.expire(frozen[0]), [removed]),
        (lambda: s.handle_disconnect("h1"), []),                   # unknown now
        (lambda: s.handle_reconnect("h1"), []),
        (lambda: s.apply_event(iface_ev("h1", "10.0.0.1")), [added]),
        (lambda: s.handle_reconnect("h1"), [removed]),   # drops the held state
    ]
    heard = []
    s.add_listener(heard.append)
    for step, want in steps:
        heard.clear()
        step()
        assert heard == want


def test_is_connected_follows_lifecycle():
    s, _ = store()
    assert s.is_connected("h1") and not s.is_connected("h2")
    s.handle_disconnect("h1")
    assert not s.is_connected("h1") and s.view("h1") is not None
    s.handle_reconnect("h1")
    assert s.is_connected("h1")


def test_verify_from_a_down_host_is_dropped_and_counted():
    s, _ = store()
    s.apply_event(proc_ev(make_proc(pid=100)))
    s.handle_disconnect("h1")
    s.merge_snapshot(snapshot("h1", TableKind.VERIFICATION, []))
    s.merge_snapshot(snapshot("h9", TableKind.VERIFICATION, []))
    assert s.counters["events_while_down"] == 2
    assert list(s.view("h1").processes) == [100]


# --- lifecycle ---------------------------------------------------------------------

def test_reconnect_within_grace_discards_old_state():
    s, clock = store()
    s.apply_event(proc_ev(make_proc(pid=100)))
    clock.t = 10.0
    s.handle_disconnect("h1")
    clock.t = 20.0
    s.handle_reconnect("h1")
    view = s.view("h1")
    assert view.connected and view.processes == {}


def test_grace_expiry_drops_host_and_addresses():
    s, clock = store()
    s.apply_event(iface_ev("h1", "10.0.0.1"))
    removed_addrs = []
    s.add_listener(lambda ch: removed_addrs.append(ch.key)
                   if ch.kind == "address" and ch.action == Action.REMOVED else None)
    clock.t = 10.0
    frozen = s.handle_disconnect("h1")
    assert frozen is s.view("h1") and frozen.disconnected_at == 10.0
    s.expire(frozen)
    assert s.view("h1") is None
    assert removed_addrs == ["10.0.0.1"]


def test_expiry_leaves_the_state_a_reconnect_made():
    s, _ = store()
    frozen = s.handle_disconnect("h1")
    s.handle_reconnect("h1")
    s.apply_event(iface_ev("h1", "10.0.0.1"))
    s.expire(frozen)
    assert s.is_connected("h1") and s.view("h1").addresses == {"10.0.0.1"}


def test_cold_start_reconnect_creates_empty_state():
    clock = FakeClock()
    s = HostStateStore(clock)
    s.handle_reconnect("never-seen")
    view = s.view("never-seen")
    assert view is not None and view.connected and not view.processes


def test_events_while_disconnected_are_dropped():
    s, _ = store()
    s.handle_disconnect("h1")
    s.apply_event(proc_ev(make_proc(pid=100)))
    assert s.counters["events_while_down"] == 1
    assert s.view("h1").processes == {}


def expire_due(s, frozen, now, grace):
    """Hand the store each state in `frozen` (those `handle_disconnect`
    returned, in order; None entries are skipped) whose grace has run out by
    `now`, as the engine's timer would, and take it off the list."""
    while frozen and (frozen[0] is None or frozen[0].disconnected_at + grace <= now):
        st = frozen.pop(0)
        if st is not None:
            s.expire(st)


# --- the store's address index ----------------------------------------------------

INDEX_HOSTS = ("h1", "h2", "h3")
INDEX_ADDRS = ("10.0.0.1", "10.0.0.2", "::ffff:10.0.0.1")  # the last is 10.0.0.1
index_ops = st.lists(st.one_of(
    st.tuples(st.sampled_from(["reconnect", "disconnect"]),
              st.sampled_from(INDEX_HOSTS)),
    st.tuples(st.just("expire"), st.sampled_from([30.0, 61.0])),
    st.tuples(st.just("event"), st.sampled_from(INDEX_HOSTS),
              st.sampled_from(INDEX_ADDRS),
              st.sampled_from([Action.ADDED, Action.REMOVED])),
    st.tuples(st.just("snapshot"), st.sampled_from(INDEX_HOSTS),
              st.lists(st.sampled_from(INDEX_ADDRS), max_size=3)),
), max_size=40)


@given(index_ops)
@settings(max_examples=300, deadline=None)
def test_store_index_equals_held_addresses(ops):
    """After every step, the index names exactly the held hosts (connected
    or frozen in their grace period) whose addresses include the address."""
    clock = FakeClock()
    s = HostStateStore(clock)
    frozen = []
    for i, (name, *args) in enumerate(ops):
        clock.t += 1.0
        if name == "reconnect":
            s.handle_reconnect(args[0])
        elif name == "disconnect":
            frozen.append(s.handle_disconnect(args[0]))
        elif name == "expire":
            clock.t += args[0]
            expire_due(s, frozen, clock.t, 60.0)
        elif name == "event":
            host, addr, action = args
            s.apply_event(iface_ev(host, addr, action=action, t=clock.t))
        else:
            host, addrs = args
            s.merge_snapshot(snapshot(host, TableKind.INTERFACES,
                                      [InterfaceRecord(host, a) for a in addrs],
                                      batch_id=i, t=clock.t))
        for addr in INDEX_ADDRS:
            canonical = InterfaceRecord("", addr).addr
            held = {h for h in s.hosts() if canonical in s.view(h).addresses}
            assert s.index.hosts_for(addr) == held, (i, addr)


# --- scripted-sequence equivalence with the reference interpreter -----------------

def scripted_events():
    a = "10.0.0.1"
    b = "10.0.0.2"
    seq = [
        proc_ev(make_proc(pid=100, start=1.0, binary="/bin/sh"), t=1.0),
        sock_ev(make_sock(pid=100, fd=5, remote=(b, 443), first_seen=1.1), t=1.1),
        user_ev(make_user(uid=1000), t=1.2),
        sock_ev(make_sock(pid=100, fd=5, source=Source.STATUS, local=(a, 4000),
                          remote=(b, 443), first_seen=1.1),
                t=2.0, table=TableKind.PROCESS_OPEN_SOCKETS),
        proc_ev(make_proc(pid=200, start=2.5, binary="/bin/cat"), t=2.5),
        sock_ev(make_sock(pid=200, fd=7, remote=(b, 80), first_seen=2.6), t=2.6),
        sock_ev(make_sock(pid=100, fd=5), action=Action.REMOVED, t=3.0),
        sock_ev(make_sock(pid=100, fd=5), action=Action.REMOVED, t=3.1),  # duplicate
        proc_ev(make_proc(pid=200, start=4.0, binary="/bin/vi"), t=4.0),  # pid reuse
        proc_ev(make_proc(pid=100), action=Action.REMOVED, t=5.0),
    ]
    return seq


def test_scripted_sequence_matches_reference_interpreter():
    s, _ = store()
    events = scripted_events()
    for e in events:
        s.apply_event(e)
    assert project(s.view("h1")) == reference_apply(events)


# --- replay determinism (property) --------------------------------------------------

pids = st.sampled_from([100, 101, 102])
fds = st.sampled_from([3, 4, 5])
remotes = st.sampled_from([("10.0.0.2", 443), ("10.0.0.3", 80), None])
locals_ = st.sampled_from([("10.0.0.1", 4000), None])
starts = st.sampled_from([1.0, 2.0])


@st.composite
def random_event(draw, t):
    which = draw(st.integers(0, 3))
    if which == 0:
        return proc_ev(make_proc(pid=draw(pids), start=draw(starts),
                                 binary=draw(st.sampled_from(["/bin/a", "/bin/b"])),
                                 source=draw(st.sampled_from(list(Source)))), t=t)
    if which == 1:
        return proc_ev(make_proc(pid=draw(pids)), action=Action.REMOVED, t=t)
    if which == 2:
        return sock_ev(make_sock(pid=draw(pids), fd=draw(fds), local=draw(locals_),
                                 remote=draw(remotes),
                                 source=draw(st.sampled_from(list(Source))),
                                 first_seen=t), t=t)
    return sock_ev(make_sock(pid=draw(pids), fd=draw(fds)), action=Action.REMOVED, t=t)


@st.composite
def event_sequences(draw):
    n = draw(st.integers(0, 30))
    return [draw(random_event(t=float(i) + 1.0)) for i in range(n)]


@given(event_sequences())
@settings(max_examples=100)
def test_replay_determinism(events):
    s1, _ = store()
    s2, _ = store()
    for e in events:
        s1.apply_event(e)
    for e in events:
        s2.apply_event(e)
    assert s1.view("h1") == s2.view("h1")
    assert project(s1.view("h1")) == reference_apply(events)


# --- audit/status convergence ---------------------------------------------------------

def lifecycle_workload(seed=7):
    """Deterministic set of (pid, fd, start, end) lifecycles around a 10s probe."""
    import random
    rng = random.Random(seed)
    items = []
    for i in range(60):
        start = rng.uniform(0.0, 90.0)
        # half short-lived (sub-probe), half spanning several probes
        life = rng.uniform(0.5, 6.0) if i % 2 else rng.uniform(15.0, 40.0)
        items.append((100 + i, 5, start, min(start + life, 99.0)))
    return items


def test_audit_and_status_builds_converge():
    probe = 10.0
    items = lifecycle_workload()

    audit_store, _ = store()
    status_store, _ = store()

    audit_events = []
    for pid, fd, t0, t1 in items:
        audit_events.append(proc_ev(make_proc(pid=pid, start=t0), t=t0))
        audit_events.append(proc_ev(make_proc(pid=pid, start=t0), action=Action.REMOVED, t=t1))
    audit_events.sort(key=lambda e: e.event_time)

    seen_by_status: set[int] = set()
    probe_times = [k * probe for k in range(1, 11)]
    ai = 0
    for bid, tp in enumerate(probe_times, start=1):
        while ai < len(audit_events) and audit_events[ai].event_time <= tp:
            audit_store.apply_event(audit_events[ai])
            ai += 1
        live = [make_proc(pid=pid, start=t0, source=Source.STATUS)
                for pid, fd, t0, t1 in items if t0 <= tp < t1]
        seen_by_status.update(p.pid for p in live)
        status_store.merge_snapshot(snapshot("h1", TableKind.PROCESSES, live, batch_id=bid, t=tp))
        status_store.verify(snapshot("h1", TableKind.VERIFICATION, live,
                                     batch_id=bid, t=tp))
        audit_store.verify(snapshot("h1", TableKind.VERIFICATION, live,
                                    batch_id=bid, t=tp))
        # at probe instants both builds hold exactly the processes alive now
        assert set(audit_store.view("h1").processes) == set(status_store.view("h1").processes)

    # every entry outliving a probe interval was observed by the status build;
    # entries the status build never saw are exactly those that fit between probes
    for pid, fd, t0, t1 in items:
        if t1 - t0 > probe:
            assert pid in seen_by_status
        if pid not in seen_by_status:
            assert not any(t0 <= tp < t1 for tp in probe_times)


# --- shared records vs. the always-rebuild fold (differential property) -------------


_SOCKET_TABLES = (TableKind.SOCKET_EVENTS, TableKind.LISTENING_PORTS,
                  TableKind.PROCESS_OPEN_SOCKETS)


class RebuildingStore(HostStateStore):
    """The oracle for the differential test below: the store's fold as it
    was before records were shared (every upserted row is rebuilt, even when
    no field changes), before its paths were merged (events and snapshots
    dispatch separately, and removals, reconnect and expiry each spell out
    their own steps), before its change stream was narrowed (every
    mutation but a socket re-sighting equal to the held record is
    announced, and the test keeps the kinds the store announces) and before expiry was handed the state it drops (the store
    holds its own grace period and scans every host for those due)."""

    def __init__(self, clock, grace_period):
        super().__init__(clock)
        self.grace_period = grace_period

    def handle_reconnect(self, host):
        now = self._clock()
        changes = []
        old = self._hosts.pop(host, None)
        if old is not None:
            for addr in sorted(old.addresses):
                changes.append(StateChange(host, "address", Action.REMOVED, addr))
            changes.append(StateChange(host, "host", Action.REMOVED, host))
        self._hosts[host] = HostState(host=host)
        changes.append(StateChange(host, "host", Action.ADDED, host))
        self._emit(changes)
        return changes

    def expire_disconnected(self):
        now = self._clock()
        expired = [host for host, st in self._hosts.items()
                   if not st.connected and st.disconnected_at is not None
                   and now >= st.disconnected_at + self.grace_period]
        changes = []
        for host in expired:
            st = self._hosts.pop(host)
            for addr in sorted(st.addresses):
                changes.append(StateChange(host, "address", Action.REMOVED, addr))
            changes.append(StateChange(host, "host", Action.REMOVED, host))
        self._emit(changes)
        return expired

    def apply_event(self, ev):
        st = self._hosts.get(ev.host)
        if st is None or not st.connected:
            self.counters["events_while_down"] += 1
            return
        self._emit(self._apply(st, ev))

    def _apply(self, st, ev):
        now = ev.event_time
        if ev.table == TableKind.PROCESS_EVENTS:
            if ev.action == Action.REMOVED:
                return self._remove_process(st, ev.payload.pid, now)
            return self._upsert_process(st, ev.payload, now)
        if ev.table in _SOCKET_TABLES:
            if ev.action == Action.REMOVED:
                return self._remove_socket(st, ev.payload.key, now)
            return self._upsert_socket(st, ev.payload, now)
        if ev.table == TableKind.USERS:
            if ev.action == Action.REMOVED:
                if st.users.pop(ev.payload.uid, None) is None:
                    self.counters["late_removal_noop"] += 1
                    return []
                return [StateChange(st.host, "user", Action.REMOVED, ev.payload.uid)]
            st.users[ev.payload.uid] = ev.payload
            return [StateChange(st.host, "user", Action.ADDED, ev.payload.uid)]
        if ev.table == TableKind.INTERFACES:
            addr = ev.payload.addr
            if ev.action == Action.REMOVED:
                if addr not in st.addresses:
                    self.counters["late_removal_noop"] += 1
                    return []
                st.addresses.discard(addr)
                return [StateChange(st.host, "address", Action.REMOVED, addr)]
            if addr in st.addresses:
                return []
            st.addresses.add(addr)
            return [StateChange(st.host, "address", Action.ADDED, addr)]
        self.counters["unroutable_table"] += 1
        return []

    def merge_snapshot(self, batch):
        if batch.table is TableKind.VERIFICATION:
            return self.verify(batch)
        st = self._hosts.get(batch.host)
        if st is None or not st.connected:
            self.counters["events_while_down"] += 1
            return []
        last = st.last_batch_id.get(batch.table, -1)
        if batch.batch_id <= last:
            self.counters["stale_batch"] += 1
            return []
        st.last_batch_id[batch.table] = batch.batch_id
        now = batch.event_time
        changes = []
        for row in batch.rows:
            if batch.table == TableKind.PROCESSES:
                changes += self._upsert_process(st, row, now)
            elif batch.table in _SOCKET_TABLES:
                changes += self._upsert_socket(st, row, now)
            elif batch.table == TableKind.USERS:
                st.users[row.uid] = row
                changes.append(StateChange(st.host, "user", Action.ADDED, row.uid))
            elif batch.table == TableKind.INTERFACES:
                if row.addr not in st.addresses:
                    st.addresses.add(row.addr)
                    changes.append(StateChange(st.host, "address", Action.ADDED, row.addr))
            else:
                self.counters["unroutable_table"] += 1
        self._emit(changes)
        return changes

    def _remove_process(self, st, pid, now):
        if st.processes.pop(pid, None) is None:
            self.counters["late_removal_noop"] += 1
            return []
        st.exec_history.pop(pid, None)
        return [StateChange(st.host, "process", Action.REMOVED, pid)]

    def _remove_socket(self, st, key, now):
        if st.sockets.pop(key, None) is None:
            self.counters["late_removal_noop"] += 1
            return []
        return [StateChange(st.host, "socket", Action.REMOVED, key)]

    def _upsert_process(self, st, proc, now):
        changes = []
        old = st.processes.get(proc.pid)
        proc = replace(proc)   # a new record even when nothing changes
        if old is not None and old.start_time == proc.start_time:
            if old.binary_path != proc.binary_path:
                hist = st.exec_history.setdefault(proc.pid, [])
                hist.append(ExecTransition(now, old))
                del hist[:-8]
            st.processes[proc.pid] = proc
            changes.append(StateChange(st.host, "process", Action.ADDED, proc.pid))
            return changes
        if old is not None:
            for key in [k for k in st.sockets if k[0] == proc.pid]:
                del st.sockets[key]
                changes.append(StateChange(st.host, "socket", Action.REMOVED, key))
            st.exec_history.pop(proc.pid, None)
        st.processes[proc.pid] = proc
        changes.append(StateChange(st.host, "process", Action.ADDED, proc.pid))
        return changes

    def _upsert_socket(self, st, sock, now):
        old = st.sockets.get(sock.key)
        merged = sock
        if old is not None:
            merged = _rebuild_merge_socket(old, sock)
        merged = replace(merged, first_seen=merged.first_seen or now)
        st.sockets[sock.key] = merged
        if old is not None and merged.to_dict() == old.to_dict():
            return []   # a re-sighting that changes no field
        return [StateChange(st.host, "socket", Action.ADDED, sock.key)]

    def verify(self, batch):
        st = self._hosts.get(batch.host)
        if st is None or not st.connected:
            self.counters["events_while_down"] += 1
            return
        seen_pids = {r.pid for r in batch.rows if isinstance(r, ProcessInfo)}
        seen_socks = {r.key for r in batch.rows if isinstance(r, SocketInfo)}
        changes = []
        removed_procs = sorted(pid for pid in st.processes if pid not in seen_pids)
        removed_socks = sorted(key for key in st.sockets if key not in seen_socks)
        for pid in removed_procs:
            del st.processes[pid]
            st.exec_history.pop(pid, None)
            changes.append(StateChange(st.host, "process", Action.REMOVED, pid))
        for key in removed_socks:
            del st.sockets[key]
            changes.append(StateChange(st.host, "socket", Action.REMOVED, key))
        self._emit(changes)


def _rebuild_merge_socket(old, new):
    def pick(new_a, new_p, old_a, old_p):
        if new_a is not None and new_p is not None:
            return new_a, new_p
        return old_a, old_p

    la, lp = pick(new.local_addr, new.local_port, old.local_addr, old.local_port)
    ra, rp = pick(new.remote_addr, new.remote_port, old.remote_addr, old.remote_port)
    first_seen = min(t for t in (old.first_seen, new.first_seen) if t > 0.0) \
        if (old.first_seen > 0.0 or new.first_seen > 0.0) else 0.0
    return SocketInfo(
        host=new.host, pid=new.pid, fd=new.fd, proto=new.proto,
        direction=new.direction, source=new.source,
        local_addr=la, local_port=lp, remote_addr=ra, remote_port=rp,
        first_seen=first_seen,
    )


sources = st.sampled_from(list(Source))


@st.composite
def proc_rows(draw, t):
    return make_proc(pid=draw(pids), start=draw(starts),
                     binary=draw(st.sampled_from(["/bin/a", "/bin/b"])),
                     source=draw(sources))


@st.composite
def sock_rows(draw, t):
    return make_sock(pid=draw(pids), fd=draw(fds), local=draw(locals_),
                     remote=draw(remotes), source=draw(sources),
                     first_seen=draw(st.sampled_from([0.0, -1.0, 0.5, t])))


users_ = st.builds(lambda uid, name: make_user(uid=uid, name=name),
                   st.sampled_from([0, 1000]), st.sampled_from(["alice", "bob"]))
# the IPv4-mapped form canonicalizes to 10.0.0.1, so it duplicates that row
ifaces = st.builds(lambda addr: InterfaceRecord("h1", addr),
                   st.sampled_from(["10.0.0.1", "10.0.0.2", "::ffff:10.0.0.1"]))
actions = st.sampled_from([Action.ADDED, Action.REMOVED])


@st.composite
def fold_ops(draw):
    """Events, snapshots (some stale), verifications and host lifecycle
    steps on one host; lifecycle steps are (step, time) pairs."""
    ops = []
    t = 1.0
    for batch_id in range(1, draw(st.integers(0, 30)) + 1):
        t += draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))
        bid = draw(st.sampled_from([batch_id, batch_id - 1]))
        which = draw(st.integers(0, 10))
        if which == 0:
            ops.append(proc_ev(draw(proc_rows(t)), t=t))
        elif which == 1:
            ops.append(sock_ev(draw(sock_rows(t)), t=t,
                               table=draw(st.sampled_from(
                                   [TableKind.SOCKET_EVENTS, TableKind.LISTENING_PORTS]))))
        elif which == 2:
            ops.append(draw(st.sampled_from([
                proc_ev(make_proc(pid=draw(pids)), action=Action.REMOVED, t=t),
                sock_ev(make_sock(pid=draw(pids), fd=draw(fds)), action=Action.REMOVED, t=t),
            ])))
        elif which == 3:
            ops.append(snapshot("h1", TableKind.PROCESSES,
                                draw(st.lists(proc_rows(t), max_size=4)),
                                batch_id=bid, t=t))
        elif which == 4:
            table = draw(st.sampled_from([TableKind.PROCESS_OPEN_SOCKETS,
                                          TableKind.LISTENING_PORTS]))
            ops.append(snapshot("h1", table, draw(st.lists(sock_rows(t), max_size=4)),
                                batch_id=bid, t=t))
        elif which == 5:
            rows = draw(st.lists(st.one_of(proc_rows(t), sock_rows(t)), max_size=6))
            ops.append(snapshot("h1", TableKind.VERIFICATION, rows, batch_id=bid,
                                t=t))
        elif which == 6:
            ops.append(user_ev(draw(users_), action=draw(actions), t=t))
        elif which == 7:
            ops.append(ev(draw(ifaces), TableKind.INTERFACES, draw(actions), t=t))
        elif which == 8:
            table, rows = draw(st.sampled_from([(TableKind.USERS, users_),
                                                (TableKind.INTERFACES, ifaces)]))
            ops.append(snapshot("h1", table, draw(st.lists(rows, max_size=4)),
                                batch_id=bid, t=t))
        elif which == 9:
            # a table of older recordings, and one the store does not route
            ops.append(draw(st.sampled_from([
                ev(make_user(), TableKind.TLS_KEYS, t=t),
                ev(make_user(), TableKind.FILE_HASH, draw(actions), t=t),
                snapshot("h1", TableKind.FILE_HASH, [make_user()], batch_id=bid, t=t),
            ])))
        else:
            ops.append((draw(st.sampled_from(["reconnect", "disconnect", "expire"])), t))
    return ops


GRACE = 5.0


def run_fold(s, clock, ops):
    """Per op, the changes `s` announced; and after each lifecycle step, the
    hosts it holds and whether each is connected.  The rebuilding store
    expires by its own scan; the store is handed each state a disconnect
    froze once its grace has run out, as the engine's timer would."""
    heard, changes, hosts, frozen = [], [], [], []
    s.add_listener(heard.append)
    for op in ops:
        if isinstance(op, tuple):
            step, clock.t = op
            if step == "reconnect":
                s.handle_reconnect("h1")
            elif step == "disconnect":
                frozen.append(s.handle_disconnect("h1"))
            elif isinstance(s, RebuildingStore):
                s.expire_disconnected()
            else:
                expire_due(s, frozen, clock.t, GRACE)
            hosts.append([(h, s.is_connected(h)) for h in s.hosts()])
        elif not hasattr(op, "rows"):
            s.apply_event(op)
        else:
            s.merge_snapshot(op)
        changes.append(heard[:])
        heard.clear()
    return changes, hosts


RECONNECTED = [("disconnect", 2.0), ("reconnect", 3.0),
               ev(InterfaceRecord("h1", "10.0.0.1"), TableKind.INTERFACES, t=3.0)]


@given(fold_ops())
# an expiry past the grace of a state that a reconnect replaced, and of one
# that a second disconnect froze again: both leave the held state alone
@example(RECONNECTED + [("expire", 3.0 + GRACE)])
@example(RECONNECTED + [("disconnect", 4.0), ("expire", 3.0 + GRACE)])
@settings(max_examples=300, deadline=None)
def test_shared_records_fold_equals_rebuilding_fold(ops):
    clock = FakeClock()
    shared = HostStateStore(clock)
    shared.handle_reconnect("h1")
    changes, got = run_fold(shared, clock, ops)
    clock = FakeClock()
    oracle = RebuildingStore(clock, GRACE)
    oracle.handle_reconnect("h1")
    every_change, want = run_fold(oracle, clock, ops)
    assert list(shared.dump_records()) == list(oracle.dump_records())
    assert got == want
    # the store announces socket upserts that change the held record,
    # address changes and a disconnect
    for op, heard, every in zip(ops, changes, every_change):
        at_disconnect = isinstance(op, tuple) and op[0] == "disconnect"
        announced = [c for c in every if c.kind == "address"
                     or (c.kind == "socket" and c.action is Action.ADDED)
                     or (c.kind == "host" and at_disconnect)]
        assert heard == announced
    assert shared.view("h1") == oracle.view("h1")
    assert shared.counters == oracle.counters
