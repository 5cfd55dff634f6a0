"""Detectors: downloaded-binary execution and SSH stepping stones."""

import collections
import hashlib
import io
import json
import pathlib
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from flowlink.config import EngineConfig
from flowlink.correlate import AttributionResult, Candidate
from flowlink.detect import (
    ATTACHMENT_EXECUTED,
    DOWNLOAD_RETENTION,
    HASH_QUERY_TIMEOUT,
    SSH_PAIRING_WINDOW,
    STEPPING_STONE,
    Alert,
    AttachmentDetector,
    DownloadStore,
    SteppingStoneDetector,
    descends_from,
)
from flowlink.engine import Engine, EngineOutputs
from flowlink.flowlog import DownloadEvent, FlowRecord, read_alerts
from flowlink.model import FileHashRecord, FlowTuple, Proto, SnapshotBatch, TableKind
from flowlink.overlay import parse_query, quote_literal
from flowlink.runtime import EventLoop
from flowlink.state import HostState

from conftest import make_proc, proc_ev


def tup(orig_p=40000, resp_h="203.0.113.80", resp_p=443):
    return FlowTuple("10.1.0.1", orig_p, resp_h, resp_p, Proto.TCP)


def download(ts=100.0, sha="a" * 64, uid="D1"):
    return DownloadEvent(ts=ts, sha256=sha, flow=tup(), flow_uid=uid)


class QueryStub:
    """Captures one-time queries the detectors publish."""

    def __init__(self):
        self.published = []          # (interest_id, query, host)
        self.retracted = []
        self._n = 0

    def publish(self, query, host):
        self._n += 1
        iid = f"q{self._n}"
        self.published.append((iid, query, host))
        return iid

    def retract(self, iid):
        self.retracted.append(iid)


def attachment_harness():
    loop = EventLoop()
    stub = QueryStub()
    alerts = []
    det = AttachmentDetector(DownloadStore(), stub.publish, stub.retract,
                             alerts.append, loop)
    return loop, stub, alerts, det


def hash_batch(host, path, sha, batch_id=1):
    return SnapshotBatch(host=host, table=TableKind.FILE_HASH,
                         batch_id=batch_id,
                         rows=(FileHashRecord(host, path, sha),))


# --- alerts ------------------------------------------------------------------------


def test_alert_identity_is_kind_plus_evidence_digest():
    a = Alert(ATTACHMENT_EXECUTED, 5.0, "h1", "x", {"pid": 9, "host": "h1"})
    b = Alert(ATTACHMENT_EXECUTED, 99.0, "h1", "different text",
              {"host": "h1", "pid": 9})
    assert a.identity == b.identity  # ts/summary don't matter, key order doesn't
    digest = hashlib.sha256(
        json.dumps({"host": "h1", "pid": 9}, sort_keys=True).encode()).hexdigest()
    assert a.identity == (ATTACHMENT_EXECUTED, digest)
    c = Alert(ATTACHMENT_EXECUTED, 5.0, "h1", "x", {"pid": 10, "host": "h1"})
    assert a.identity != c.identity
    d = Alert(STEPPING_STONE, 5.0, "h1", "x", {"pid": 9, "host": "h1"})
    assert a.identity != d.identity


# --- download store ------------------------------------------------------------------


def test_download_store_prunes_by_retention():
    store = DownloadStore()
    store.add(download(ts=10.0, uid="old"))
    store.add(download(ts=20.0, sha="b" * 64, uid="newer"))
    assert len(store) == 2
    store.prune(now=15.0 + DOWNLOAD_RETENTION)
    assert store.newest("a" * 64, now=15.0 + DOWNLOAD_RETENTION) is None
    assert store.newest("b" * 64, now=15.0 + DOWNLOAD_RETENTION).flow_uid == "newer"
    assert store.newest("b" * 64, now=25.0 + DOWNLOAD_RETENTION) is None
    assert len(store) == 0


def test_download_store_duplicate_hash_newest_first():
    store = DownloadStore()
    store.add(download(ts=10.0, uid="first"))
    store.add(download(ts=30.0, uid="second"))
    store.add(download(ts=20.0, uid="between"))
    store.add(download(ts=20.0, sha="b" * 64, uid="other"))
    assert len(store) == 2
    assert store.newest("a" * 64, now=30.0).flow_uid == "second"
    assert store.newest("b" * 64, now=30.0).flow_uid == "other"
    # the older sightings go with the newest one, not before it
    assert store.newest("a" * 64, now=25.0 + DOWNLOAD_RETENTION).flow_uid == "second"
    assert store.newest("a" * 64, now=31.0 + DOWNLOAD_RETENTION) is None


def test_download_store_keeps_the_first_of_same_ts_sightings():
    # two copies of one attachment arrive with one timestamp
    store = DownloadStore()
    store.add(download(ts=5.0, uid="first"))
    store.add(download(ts=5.0, uid="second"))
    assert len(store) == 1
    assert store.newest("a" * 64, now=4.0 + DOWNLOAD_RETENTION).flow_uid == "first"
    assert (store.newest("a" * 64, now=6.0 + DOWNLOAD_RETENTION) is None
            and len(store) == 0)


download_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), st.sampled_from("ab"), st.sampled_from([0.0, 5.0, 10.0, 30.0])),
    st.tuples(st.just("ask"), st.sampled_from("ab"), st.sampled_from([0.0, 2.5, 10.0]))),
    max_size=30)


@given(download_ops)
@settings(max_examples=200, deadline=None)
def test_download_store_equals_every_sighting_kept(ops):
    """Asked at a clock that never goes back, the store names the newest
    sighting within retention, the first on a tie, as if it kept them all.
    The clock starts 20 s short of the retention, so the drawn steps age
    sightings out."""
    store, every, now = DownloadStore(), [], DOWNLOAD_RETENTION - 20.0
    for i, (op, h, x) in enumerate(ops):
        if op == "add":
            ev = download(ts=x, sha=h * 64, uid=str(i))
            store.add(ev)
            every.append(ev)
            continue
        now += x
        live = [ev for ev in every if ev.ts >= now - DOWNLOAD_RETENTION]
        want = max((ev for ev in live if ev.sha256 == h * 64), key=lambda ev: ev.ts,
                   default=None)
        assert store.newest(h * 64, now) == want
        assert len(store) == len({ev.sha256 for ev in live})


# --- attachment detector ---------------------------------------------------------------


def test_no_downloads_means_no_query():
    loop, stub, alerts, det = attachment_harness()
    det.on_process_added(make_proc(pid=900, binary="/tmp/x"), now=5.0)
    assert stub.published == [] and alerts == []


def test_exec_of_downloaded_binary_alerts():
    loop, stub, alerts, det = attachment_harness()
    sha = "a" * 64
    det.on_download(download(ts=100.0, sha=sha))
    proc = make_proc(host="h1", pid=9000, binary="/home/alice/mal.bin")
    det.on_process_added(proc, now=103.0)
    assert stub.published == [
        ("q1", "file_hash WHERE path == '/home/alice/mal.bin'", "h1")]
    det.on_file_hash(hash_batch("h1", "/home/alice/mal.bin", sha), now=103.1)
    assert len(alerts) == 1
    ev = alerts[0].evidence
    assert alerts[0].kind == ATTACHMENT_EXECUTED
    assert (ev["host"], ev["pid"], ev["sha256"]) == ("h1", 9000, sha)
    assert ev["flow_uid"] == "D1" and ev["download_ts"] == 100.0
    assert stub.retracted == ["q1"]  # answered queries are withdrawn


@given(st.text(alphabet="'\"\\ /.a_é日\t", min_size=1) | st.text(min_size=1))
@settings(max_examples=300, deadline=None)
def test_published_query_parses_back_to_the_path(path):
    # any path is asked for, whatever quotes it holds: `'` is written `''`
    loop, stub, alerts, det = attachment_harness()
    det.on_download(download(ts=100.0))
    det.on_process_added(make_proc(host="h1", pid=9000, binary=path), now=101.0)
    ((_, query, host),) = stub.published
    q = parse_query(query)
    assert (host, q.table, q.column, q.literal) == ("h1", "file_hash", "path", path)
    assert q.matches(FileHashRecord("h1", path, "0" * 64))


def test_hash_mismatch_means_no_alert():
    loop, stub, alerts, det = attachment_harness()
    det.on_download(download(sha="a" * 64))
    det.on_process_added(make_proc(pid=9000, binary="/bin/clean"), now=101.0)
    det.on_file_hash(hash_batch("h1", "/bin/clean", "c" * 64), now=101.1)
    assert alerts == []
    assert stub.retracted == ["q1"]


def test_cached_hash_skips_second_query():
    loop, stub, alerts, det = attachment_harness()
    sha = "a" * 64
    det.on_download(download(sha=sha))
    det.on_process_added(make_proc(pid=9000, binary="/tmp/x"), now=101.0)
    det.on_file_hash(hash_batch("h1", "/tmp/x", sha), now=101.1)
    det.on_process_added(make_proc(pid=9001, binary="/tmp/x"), now=102.0)
    assert len(stub.published) == 1
    assert [a.evidence["pid"] for a in alerts] == [9000, 9001]


def test_detector_hands_a_re_derived_alert_to_its_sink():
    loop, stub, alerts, det = attachment_harness()
    sha = "a" * 64
    det.on_download(download(sha=sha))
    proc = make_proc(pid=9000, binary="/tmp/x")
    det.on_process_added(proc, now=101.0)
    det.on_file_hash(hash_batch("h1", "/tmp/x", sha), now=101.1)
    det.on_process_added(proc, now=102.0)  # replayed exec, cached hash path
    assert len(alerts) == 2
    assert alerts[0].identity == alerts[1].identity


def test_identical_evidence_is_emitted_once():
    # the engine's alert path keeps the first alert of an identity only
    loop = EventLoop()
    out = EngineOutputs(alerts=io.StringIO())
    engine = Engine(EngineConfig(), loop, outputs=out)
    engine.register_host("h1")
    loop.run_until(101.0)
    sha = "a" * 64
    engine.submit_download(download(sha=sha))
    proc = make_proc(pid=9000, binary="/tmp/x")
    engine.ingest_result("t", proc_ev(proc))
    engine.ingest_result("t", hash_batch("h1", "/tmp/x", sha))
    loop.run_until(102.0)
    engine.ingest_result("t", proc_ev(proc))  # replayed exec, cached hash path
    (logged,) = read_alerts(iter(out.alerts.getvalue().splitlines()))
    assert logged["evidence"]["pid"] == 9000
    assert [a.to_dict() for a in engine.alerts] == [logged]
    assert engine.counters["alerts"] == 1
    assert engine.counters["alerts_duplicate"] == 1


def test_concurrent_execs_share_one_query():
    loop, stub, alerts, det = attachment_harness()
    sha = "a" * 64
    det.on_download(download(sha=sha))
    det.on_process_added(make_proc(pid=9000, binary="/tmp/x"), now=101.0)
    det.on_process_added(make_proc(pid=9001, binary="/tmp/x"), now=101.5)
    assert len(stub.published) == 1
    det.on_file_hash(hash_batch("h1", "/tmp/x", sha), now=102.0)
    assert [a.evidence["pid"] for a in alerts] == [9000, 9001]


def test_unanswered_query_times_out_and_retracts():
    loop, stub, alerts, det = attachment_harness()
    det.on_download(download())
    loop.run_until(100.0)
    det.on_process_added(make_proc(pid=9000, binary="/tmp/x"), now=100.0)
    loop.run_until(100.0 + HASH_QUERY_TIMEOUT - 1.0)
    assert det.counters["hash_query_timeouts"] == 0
    loop.run_until(100.0 + HASH_QUERY_TIMEOUT + 1.0)
    assert det.counters["hash_query_timeouts"] == 1
    assert stub.retracted == ["q1"]
    det.on_file_hash(hash_batch("h1", "/tmp/x", "a" * 64),
                     now=100.0 + HASH_QUERY_TIMEOUT + 2.0)
    assert alerts == []  # the waiting exec was dropped with the query


def test_stale_timeout_leaves_a_new_query_for_the_same_key_pending():
    loop, stub, alerts, det = attachment_harness()
    sha = "a" * 64
    det.on_download(download(sha=sha))
    loop.run_until(100.0)
    det.on_process_added(make_proc(pid=9000, binary="/tmp/x"), now=100.0)
    det.on_file_hash(hash_batch("h1", "/tmp/x", "c" * 64), now=100.2)  # q1
    # the cached hash is dropped, as an invalidated entry would be, so the
    # next exec of the path asks again: q2, while q1's timer is still armed
    det._hash_cache.clear()
    asked = 100.0 + HASH_QUERY_TIMEOUT - 2.0
    loop.run_until(asked)
    det.on_process_added(make_proc(pid=9001, binary="/tmp/x"), now=asked)
    assert [p[0] for p in stub.published] == ["q1", "q2"]
    loop.run_until(100.0 + HASH_QUERY_TIMEOUT + 1.0)  # q1's timer fires while q2 is out
    assert det.counters["hash_query_timeouts"] == 0
    det.on_file_hash(hash_batch("h1", "/tmp/x", sha),
                     now=100.0 + HASH_QUERY_TIMEOUT + 1.5)
    assert [a.evidence["pid"] for a in alerts] == [9001]
    loop.run_until(100.0 + 4 * HASH_QUERY_TIMEOUT)  # and so does q2's
    assert stub.retracted == ["q1", "q2"]
    assert det.counters["hash_query_timeouts"] == 0


def test_unanswered_queries_share_one_timer_and_time_out_at_their_own_deadlines():
    loop, stub, alerts, det = attachment_harness()
    det.on_download(download())
    for t, path in ((100.0, "/tmp/a"), (101.0, "/tmp/b"), (103.0, "/tmp/c")):
        loop.run_until(t)
        det.on_process_added(make_proc(pid=9000, binary=path), now=t)
        assert len(loop._heap) == 1  # the detector's one timeout timer
    timeout = HASH_QUERY_TIMEOUT
    for t, retracted in ((99.5 + timeout, []), (100.0 + timeout, ["q1"]),
                         (100.5 + timeout, ["q1"]), (101.0 + timeout, ["q1", "q2"]),
                         (103.0 + timeout, ["q1", "q2", "q3"])):
        loop.run_until(t)
        assert stub.retracted == retracted, t
        assert det.counters["hash_query_timeouts"] == len(retracted)
        assert len(loop._heap) <= 1
    assert loop._heap == []


class _HostQueries:
    """The in-flight query table the attachment detector had before its
    queries shared one `DeadlineMap`, kept as the reference: one timeout
    timer per published query, and a check that drops a timer whose key
    was answered and asked again since it was armed."""

    def __init__(self, publish, retract, scheduler, timeout, on_timeout):
        self._publish = publish
        self._retract = retract
        self._scheduler = scheduler
        self._timeout = timeout
        self._on_timeout = on_timeout
        self._pending = {}  # key -> (interest id, waiters)

    def ask(self, key, host, query, waiter):
        pending = self._pending.get(key)
        if pending is not None:
            pending[1].append(waiter)
            return False
        iid = self._publish(query, host)
        self._pending[key] = (iid, [waiter])
        self._scheduler.call_later(self._timeout, self._expire, key, iid)
        return True

    def answer(self, key):
        pending = self._pending.pop(key, None)
        if pending is None:
            return []
        self._retract(pending[0])
        return pending[1]

    def _expire(self, key, interest_id):
        pending = self._pending.get(key)
        if pending is None or pending[0] != interest_id:
            return
        del self._pending[key]
        self._retract(interest_id)
        self._on_timeout(pending[1])


class PerQueryTimerDetector(AttachmentDetector):
    """`AttachmentDetector` on `_HostQueries`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._queries = _HostQueries(self._publish, self._retract,
                                     kwargs["scheduler"], HASH_QUERY_TIMEOUT,
                                     self._on_timeout)

    def on_process_added(self, proc, now):
        self.downloads.prune(now)
        if not len(self.downloads):
            return
        key = (proc.host, proc.binary_path)
        cached = self._hash_cache.get(key)
        if cached is not None:
            self._check(proc, cached, now)
            return
        query = f"file_hash WHERE path == {quote_literal(proc.binary_path)}"
        if self._queries.ask(key, proc.host, query, proc):
            self.counters["hash_queries"] += 1

    def on_file_hash(self, batch, now):
        for row in batch.rows:
            key = (batch.host, row.path)
            self._hash_cache[key] = row.sha256
            for proc in self._queries.answer(key):
                self._check(proc, row.sha256, now)

    def _on_timeout(self, procs):
        self.counters["hash_query_timeouts"] += 1


Q_HOSTS = ("h1", "h2")
Q_PATHS = ("/tmp/a", "/tmp/b")
DOWNLOADED = "a" * 64

query_steps = st.lists(st.one_of(
    st.tuples(st.just("exec"), st.sampled_from(Q_HOSTS), st.sampled_from(Q_PATHS)),
    st.tuples(st.just("answer"), st.sampled_from(Q_HOSTS), st.sampled_from(Q_PATHS),
              st.sampled_from((DOWNLOADED, "c" * 64))),
    st.tuples(st.just("empty_answer"), st.sampled_from(Q_HOSTS)),
    st.tuples(st.just("clear_cache")),
    # sums of these hit the timeout exactly: deadline ties
    st.tuples(st.just("advance"), st.sampled_from(
        (0.0, HASH_QUERY_TIMEOUT / 4, HASH_QUERY_TIMEOUT / 2, HASH_QUERY_TIMEOUT)))),
    max_size=40)


def run_query_world(detector_cls, steps):
    loop = EventLoop()
    stub = QueryStub()
    alerts = []
    det = detector_cls(DownloadStore(), stub.publish, stub.retract, alerts.append,
                       scheduler=loop)
    det.on_download(download(ts=0.0, sha=DOWNLOADED))
    most_timers = 0
    for pid, (name, *args) in enumerate(steps, 9000):
        now = loop.now()
        if name == "exec":
            host, path = args
            det.on_process_added(make_proc(host=host, pid=pid, binary=path), now)
        elif name == "answer":
            host, path, sha = args
            det.on_file_hash(hash_batch(host, path, sha, batch_id=pid), now)
        elif name == "empty_answer":
            det.on_file_hash(SnapshotBatch(host=args[0], table=TableKind.FILE_HASH,
                                           batch_id=pid, rows=()), now)
        elif name == "clear_cache":
            det._hash_cache.clear()
        else:
            loop.run_until(now + args[0])
        most_timers = max(most_timers, len(loop._heap))
    loop.run_until_idle()
    counters = collections.Counter(
        {k: det.counters[k] for k in ("hash_queries", "hash_query_timeouts")})
    return ([a.to_dict() for a in alerts], stub.published, stub.retracted,
            counters, most_timers)


@given(query_steps)
@settings(max_examples=300, deadline=None)
def test_one_timer_query_table_equals_per_query_timers(steps):
    *got, most_timers = run_query_world(AttachmentDetector, steps)
    *want, _ = run_query_world(PerQueryTimerDetector, steps)
    assert got == want
    assert most_timers <= 1


def test_expired_download_never_matches():
    loop, stub, alerts, det = attachment_harness()
    det.on_download(download(ts=10.0))
    det.on_process_added(make_proc(pid=9000, binary="/tmp/x"),
                         now=100.0 + DOWNLOAD_RETENTION)
    assert stub.published == [] and alerts == []


# --- stepping-stone detector ---------------------------------------------------------


def ssh_result(orig=None, resp=None, uid="F1", end=100.0, resp_h="10.1.0.2",
               orig_h="10.1.0.1", orig_p=41000):
    originator = (Candidate(*orig),) if orig else ()
    responder = (Candidate(*resp),) if resp else ()
    flow = FlowTuple(orig_h, orig_p, resp_h, 22, Proto.TCP)
    record = FlowRecord(ts=end - 10.0, uid=uid, orig_h=orig_h, orig_p=orig_p,
                        resp_h=resp_h, resp_p=22, proto=Proto.TCP,
                        duration=10.0)
    return AttributionResult(flow=flow, flow_start=end - 10.0, flow_end=end,
                             originator=originator, responder=responder,
                             decided_at=end, tag=record)


# h001's tree: sshd (50) -> session leader 201 -> shell 203 -> ssh 205, and
# an unrelated ssh 206 under init
RELAY_TREE = [(50, 1), (201, 50), (203, 201), (205, 203), (206, 1)]


class FakeView:
    """Stands in for `HostStateStore.view`: each host's held processes,
    and the hosts asked about, in order."""

    def __init__(self, trees=None):
        self.states = {host: HostState(host, processes={
            pid: make_proc(host=host, pid=pid, ppid=ppid) for pid, ppid in tree})
            for host, tree in (trees or {}).items()}
        self.asked = []

    def __call__(self, host):
        self.asked.append(host)
        return self.states.get(host)


def stepping_harness(trees=None):
    view = FakeView({"h001": RELAY_TREE} if trees is None else trees)
    alerts = []
    det = SteppingStoneDetector(view, alerts.append)
    return view, alerts, det


def test_relay_pair_alerts_when_client_descends_from_session():
    view, alerts, det = stepping_harness()
    # outbound leg reports first (it ends first), inbound session later
    det.on_attributed(ssh_result(orig=("h001", 205), uid="OUT", end=120.0,
                                 orig_h="10.1.0.2", resp_h="10.1.0.3"), now=120.0)
    assert view.asked == [] and alerts == []  # half a pair: nothing to decide
    det.on_attributed(ssh_result(resp=("h001", 201), uid="IN", end=125.0,
                                 orig_h="10.1.0.1", resp_h="10.1.0.2"), now=125.2)
    assert view.asked == ["h001"]
    assert len(alerts) == 1
    ev = alerts[0].evidence
    assert alerts[0].kind == STEPPING_STONE
    assert alerts[0].ts == 125.2  # decided when the pair formed
    assert (ev["in_pid"], ev["out_pid"]) == (201, 205)
    assert (ev["in_flow"], ev["out_flow"]) == ("IN", "OUT")


def test_unrelated_outbound_ssh_stays_quiet():
    view, alerts, det = stepping_harness()
    det.on_attributed(ssh_result(orig=("h001", 206), uid="OUT", end=120.0),
                      now=120.0)
    det.on_attributed(ssh_result(resp=("h001", 201), uid="IN", end=125.0),
                      now=125.0)
    assert view.asked == ["h001"] and alerts == []


def test_pair_on_a_host_the_store_does_not_hold_stays_quiet():
    view, alerts, det = stepping_harness(trees={})
    det.on_attributed(ssh_result(orig=("h001", 205), uid="OUT", end=120.0),
                      now=120.0)
    det.on_attributed(ssh_result(resp=("h001", 201), uid="IN", end=125.0),
                      now=125.0)
    assert view.asked == ["h001"] and alerts == []


def test_legs_on_different_hosts_never_pair():
    view, alerts, det = stepping_harness()
    det.on_attributed(ssh_result(orig=("h002", 205), uid="OUT", end=120.0),
                      now=120.0)
    det.on_attributed(ssh_result(resp=("h001", 201), uid="IN", end=125.0),
                      now=125.0)
    assert view.asked == [] and alerts == []


def test_pairing_window_excludes_stale_legs():
    view, alerts, det = stepping_harness()
    det.on_attributed(ssh_result(orig=("h001", 205), uid="OUT", end=100.0),
                      now=100.0)
    late = 200.0 + SSH_PAIRING_WINDOW
    det.on_attributed(ssh_result(resp=("h001", 201), uid="IN", end=late),
                      now=late)
    assert view.asked == [] and alerts == []


def test_same_flow_cannot_pair_with_itself():
    view, alerts, det = stepping_harness()
    det.on_attributed(ssh_result(orig=("h001", 205), resp=("h001", 201),
                                 uid="LOOP", end=100.0), now=100.0)
    assert view.asked == [] and alerts == []


def test_non_ssh_flows_are_ignored():
    view, alerts, det = stepping_harness()
    res = ssh_result(orig=("h001", 205), uid="WEB", end=100.0)
    res = AttributionResult(
        flow=FlowTuple("10.1.0.1", 41000, "10.1.0.2", 443, Proto.TCP),
        flow_start=90.0, flow_end=100.0, originator=res.originator,
        tag=res.tag)
    det.on_attributed(res, now=100.0)
    assert det.counters["ssh_flows"] == 0 and view.asked == []


def test_re_reported_leg_re_derives_the_same_alert():
    # each pair is decided when its later leg arrives; a re-reported leg
    # decides it again, and the engine's alert path drops the repeat
    view, alerts, det = stepping_harness()
    out = ssh_result(orig=("h001", 205), uid="OUT", end=100.0)
    inc = ssh_result(resp=("h001", 201), uid="IN", end=101.0)
    det.on_attributed(out, now=100.0)
    det.on_attributed(inc, now=101.0)
    det.on_attributed(inc, now=102.0)
    assert [a.ts for a in alerts] == [101.0, 102.0]
    assert alerts[0].identity == alerts[1].identity


def test_legs_expire_with_the_pairing_window():
    view, alerts, det = stepping_harness()
    det.on_attributed(ssh_result(orig=("h001", 205), uid="OUT", end=100.0),
                      now=100.0)
    det.on_attributed(ssh_result(resp=("h001", 201), uid="IN", end=101.0),
                      now=101.0)
    assert len(alerts) == 1
    # the next ssh flow comes after the pairing window: both legs are pruned
    late = 200.0 + SSH_PAIRING_WINDOW
    det.on_attributed(ssh_result(orig=("h002", 300), uid="LATER", end=late),
                      now=late)
    assert dict(det._incoming) == {}
    assert {host: [leg.flow_uid for leg in legs]
            for host, legs in det._outgoing.items()} == {"h002": ["LATER"]}


def test_descends_from_is_strict_and_transitive():
    procs = {pid: make_proc(host="h001", pid=pid, ppid=ppid)
             for pid, ppid in RELAY_TREE + [(202, 201), (204, 50)]}
    assert descends_from(procs, 205, 201)      # a grandchild
    assert descends_from(procs, 202, 201)      # a child
    assert not descends_from(procs, 201, 201)  # the leader itself
    assert not descends_from(procs, 204, 201)  # a sibling of the leader
    assert not descends_from(procs, 206, 201)  # under init
    assert not descends_from(procs, 999, 201)  # a pid the host does not hold
    assert not descends_from(procs, 205, 999)  # a leader it does not hold
    # a parent_pid cycle ends the walk
    cycle = {pid: make_proc(host="h001", pid=pid, ppid=ppid)
             for pid, ppid in [(201, 203), (203, 205), (205, 203)]}
    assert not descends_from(cycle, 205, 201)
    assert not descends_from(cycle, 203, 203)  # reached only through itself
    assert descends_from(cycle, 201, 205)      # met before the walk repeats


# --- docs ----------------------------------------------------------------------------


def test_readme_metrics_name_exactly_the_detector_counters():
    root = pathlib.Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    metrics = readme[readme.index("## Metrics"):]
    sentence = metrics[metrics.index("the detectors count"):].split("not alerts", 1)[0]
    source = (root / "src" / "flowlink" / "detect.py").read_text(encoding="utf-8")
    assert sorted(re.findall(r"`([a-z_]+)`", sentence)) == \
        sorted(set(re.findall(r'counters\["([a-z_]+)"\]', source)))
