"""End-to-end command-line checks: every subcommand, config diagnostics,
the ingestion sources, and log accounting across clean shutdowns."""

import contextlib
import io
import json
import socket
import threading
import time

import pytest

from flowlink.agents import ENGINE_TOPIC
from flowlink.cli import main
from flowlink.engine import Engine
from flowlink.flowlog import read_alerts, read_enriched


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _enriched_rows(path):
    with open(path, encoding="utf-8") as fh:
        return list(read_enriched(iter(fh)))


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _main_in_thread(argv, timeout, while_running=None):
    """main(argv) on a daemon thread, with `while_running()` called meanwhile;
    None if main has not returned within `timeout` seconds, so a hang fails
    the test instead of stalling the run."""
    result = {}
    th = threading.Thread(target=lambda: result.update(code=main(argv)),
                          daemon=True)
    th.start()
    if while_running is not None:
        while_running()
    th.join(timeout)
    return result.get("code")


FLOW_HEADER = ("#flowlink flow-log v1\n"
               "#fields\tts\tuid\torig_h\torig_p\tresp_h\tresp_p\tproto\t"
               "duration\torig_bytes\tresp_bytes\torig_pkts\tresp_pkts\n")


# --- sim / replay -------------------------------------------------------------------


def test_sim_then_replay_reproduces_logs_byte_for_byte(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["sim", "--hosts", "2", "--duration", "8", "--rate", "2",
                 "--seed", "11", "--log-dir", str(first), "--record"]) == 0
    assert main(["replay", "--inputs", str(first / "inputs.log"),
                 "--log-dir", str(second)]) == 0
    assert _read(first / "conn.log") == _read(second / "conn.log")
    assert _read(first / "alerts.log") == _read(second / "alerts.log")


def test_replay_of_an_older_recording_with_a_process_descendants_answer(
        tmp_path, monkeypatch):
    """Older engines asked the relay host for the inbound session's process
    tree, and streamed TLS-key events with opaque payloads.  Either entry
    in their recordings still decodes, is counted as a table the store does
    not route, and changes no log."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"workload": {
        "hosts": 3, "duration": 45.0, "event_rate": 1.0, "seed": 17,
        "scenarios": [{"kind": "ssh_chain", "at": 15.0}]}}))
    rec = tmp_path / "rec"
    assert main(["sim", "--config", str(config), "--log-dir", str(rec),
                 "--record"]) == 0
    (alert,) = read_alerts(iter(_read(rec / "alerts.log").splitlines()))
    ev = alert["evidence"]
    answer = {"t": alert["ts"] + 0.002, "kind": "snapshot", "topic": ENGINE_TOPIC,
              "data": {"host": ev["host"], "table": "process_descendants",
                       "batch_id": 1, "event_time": alert["ts"] + 0.001,
                       "rows": [{"_kind": "opaque", "root": ev["in_pid"],
                                 "pid": ev["out_pid"]}]}}
    tls_keys = {"t": alert["ts"] + 0.002, "kind": "host_event",
                "topic": ENGINE_TOPIC,
                "data": {"host": ev["host"], "table": "tls_keys",
                         "action": "added", "event_time": alert["ts"] + 0.001,
                         "payload": {"_kind": "opaque", "session": "deadbeef",
                                     "key": "0" * 64}}}
    engines = []
    monkeypatch.setattr("flowlink.cli.Engine", lambda *args, **kwargs: (
        engines.append(Engine(*args, **kwargs)) or engines[-1]))
    lines = _read(rec / "inputs.log").splitlines(True)
    for n, entry in enumerate((answer, tls_keys)):
        at = next(i for i in range(1, len(lines))
                  if json.loads(lines[i])["t"] > entry["t"])
        inputs = tmp_path / f"inputs{n}.log"
        inputs.write_text("".join(lines[:at] + [json.dumps(entry) + "\n"]
                                  + lines[at:]))
        out = tmp_path / f"out{n}"
        assert main(["replay", "--config", str(config), "--inputs", str(inputs),
                     "--log-dir", str(out)]) == 0
        assert _read(out / "conn.log") == _read(rec / "conn.log")
        assert _read(out / "alerts.log") == _read(rec / "alerts.log")
        assert engines[-1].store.counters["unroutable_table"] == 1


def test_run_summary_follows_a_redirect_of_stderr(tmp_path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["sim", "--hosts", "2", "--duration", "8", "--rate", "2",
                     "--log-dir", str(tmp_path)]) == 0
    lines = err.getvalue().splitlines()
    assert any(line.startswith("flows in/out: ") for line in lines)
    assert f"logs: {tmp_path / 'conn.log'}, {tmp_path / 'alerts.log'}" in lines


def test_sim_seed_changes_logs(tmp_path):
    a, b, c = (tmp_path / n for n in "abc")
    for seed, d in (("5", a), ("5", b), ("6", c)):
        assert main(["sim", "--hosts", "2", "--duration", "8", "--rate", "2",
                     "--seed", seed, "--log-dir", str(d)]) == 0
    assert _read(a / "conn.log") == _read(b / "conn.log")
    assert _read(a / "conn.log") != _read(c / "conn.log")


def test_sim_rejects_unknown_workload_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"engine": {}, "workload": {"hostz": 3}}))
    assert main(["sim", "--config", str(cfg),
                 "--log-dir", str(tmp_path / "logs")]) == 2
    assert "hostz" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sim", "run"])
@pytest.mark.parametrize("workload, field", [
    ({"hosts": "8"}, "hosts"),
    ({"hosts": 2.5}, "hosts"),
    ({"hosts": True}, "hosts"),
    ({"duration": None}, "duration"),
    ({"duration": float("nan")}, "duration"),
    ({"seed": [1]}, "seed"),
    ({"full_visibility": 1}, "full_visibility"),
    ({"scenarios": {"kind": "process_crash", "at": 5}}, "scenarios"),
    ({"scenarios": [{"kind": "process_crash"}]}, "'at'"),
    ({"scenarios": [{"kind": "process_crash", "at": "5"}]}, "at"),
    ({"scenarios": [{"kind": "process_crash", "at": 5, "host": 3}]}, "host"),
    ({"scenarios": ["process_crash"]}, "scenarios"),
    ([{"hosts": 8}], "workload"),
    ({"scenarios": [{"kind": "process_crash", "at": 5, "host": "nope"}]}, "host"),
    ({"hosts": 0, "scenarios": [{"kind": "host_reconnect", "at": 5}]}, "host"),
    ({"scenarios": [{"kind": "process_crash", "at": 5, "params": {"after": [1]}}]},
     "after"),
    ({"scenarios": [{"kind": "short_socket", "at": 5, "params": {"flow": 1}}]},
     "flow"),
    ({"scenarios": [{"kind": "attachment_noexec", "at": 5,
                     "params": {"sesion": "x"}}]}, "sesion"),
    ({"hosts": 4, "scenarios": [{"kind": "ssh_chain", "at": 5,
                                 "params": {"chain": ["h000", "h001"]}}]}, "chain"),
    ({"hosts": 2, "scenarios": [{"kind": "ssh_chain", "at": 5}]}, "chain"),
    ({"hosts": 4, "scenarios": [{"kind": "ssh_unrelated", "at": 5,
                                 "params": {"chain": ["h000", "h001", "h001"]}}]},
     "chain"),
    ({"hosts": 1, "duration": 10, "probe_interval": 0, "udp_sockets_per_host": 1},
     "probe_interval"),
    ({"probe_interval": -5}, "probe_interval"),
    ({"udp_sockets_per_host": -1}, "udp_sockets_per_host"),
    ({"flows_per_host": -1}, "flows_per_host"),
    ({"scenarios": [{"kind": "tls_keys", "at": 5}]}, "tls_keys"),
])
def test_malformed_workload_exits_2_before_opening_logs(tmp_path, capsys, command,
                                                        workload, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"engine": {}, "workload": workload}))
    log_dir = tmp_path / "logs"
    argv = [command, "--config", str(cfg), "--log-dir", str(log_dir)]
    if command == "run":
        argv += ["--duration", "1"]
    assert _main_in_thread(argv, 20) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and field in err[0]
    assert not log_dir.exists()


@pytest.mark.parametrize("command", ["sim", "run", "replay"])
@pytest.mark.parametrize("content", [None, b"{\"engine\": \"\xff\"}"],
                         ids=["missing", "not-utf8"])
def test_unreadable_config_exits_2_with_one_line(tmp_path, capsys, command, content):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_bytes(content)
    log_dir = tmp_path / "logs"
    argv = [command, "--config", str(cfg), "--log-dir", str(log_dir)]
    if command == "run":
        argv += ["--duration", "1"]
    assert _main_in_thread(argv, 20) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "cannot read config" in err[0]
    assert not log_dir.exists()


def test_config_field_of_wrong_type_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"engine": {"dns_servers": 5}}))
    assert main(["sim", "--config", str(cfg),
                 "--log-dir", str(tmp_path / "logs")]) == 2
    assert capsys.readouterr().err == (
        "error: dns_servers: expected a list of strings, got 5\n")


def test_config_with_non_finite_duration_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"engine": {"retry_window": NaN}}')
    log_dir = tmp_path / "logs"
    argv = ["sim", "--config", str(cfg), "--hosts", "1", "--duration", "5",
            "--log-dir", str(log_dir)]
    assert _main_in_thread(argv, 20) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "retry_window" in err[0]
    assert not log_dir.exists()


def test_config_naming_roles_exits_2_as_unknown_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"roles": ["proxy"]}))
    assert main(["run", "--config", str(cfg),
                 "--log-dir", str(tmp_path / "logs")]) == 2
    assert "unknown config field 'roles'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sim", "run", "replay"])
@pytest.mark.parametrize("name, value", [
    ("groups", 5), ("groups", {"h1": 5}), ("groups", {"h1": ["servers"]}),
    ("exec_ambiguity_window", 0.1), ("ssh_pairing_window", 600.0),
    ("download_retention", 86400.0), ("hash_query_timeout", 5.0),
])
@pytest.mark.parametrize("sectioned", [True, False], ids=["engine", "flat"])
def test_config_naming_a_removed_engine_field_exits_2(tmp_path, capsys, command,
                                                      name, value, sectioned):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"engine": {name: value}} if sectioned
                              else {name: value}))
    log_dir = tmp_path / "logs"
    argv = [command, "--config", str(cfg), "--log-dir", str(log_dir)]
    if command == "run":
        argv += ["--duration", "1"]
    elif command == "replay":
        argv += ["--inputs", str(tmp_path / "inputs.log")]
    assert _main_in_thread(argv, 20) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: unknown config field {name!r}"]
    assert not log_dir.exists()


def test_replay_refuses_garbage_inputs(tmp_path, capsys):
    bad = tmp_path / "inputs.log"
    bad.write_text("not a log\n")
    assert main(["replay", "--inputs", str(bad),
                 "--log-dir", str(tmp_path / "out")]) == 2
    assert "inputs" in capsys.readouterr().err


@pytest.mark.parametrize("entry, cause", [
    ('{"kind": "host_up", "data": {"host": "h1"}}', "KeyError"),
    ("[1, 2]", "TypeError"),
    ('{"t": 1.0, "kind": "flow", "data": {"ts": 1.0, "uid": "F1", "orig_h": "10.0.0.1", '
     '"orig_p": 1, "resp_h": "10.0.0.2", "resp_p": 2}}', "proto"),
    ('{"t": 1.0, "kind": "flow", "data": {"ts": "abc", "uid": "F1", "orig_h": "10.0.0.1", '
     '"orig_p": 1, "resp_h": "10.0.0.2", "resp_p": 2, "proto": "tcp"}}', "ValueError"),
    ('{"t": 1.0, "kind": "flow", "data": {"duration": [0.5], "ts": 1.0, "uid": "F1", '
     '"orig_h": "10.0.0.1", "orig_p": 1, "resp_h": "10.0.0.2", "resp_p": 2, '
     '"proto": "tcp"}}', "TypeError"),
    ('{"t": 1.0, "kind": "flow", "data": {"ts": 1.0, "uid": "F1", "orig_h": "10.0.0.1", '
     '"orig_p": 1, "resp_h": "10.0.0.2", "resp_p": 2, "proto": "sctp"}}',
     "ValueError: 'sctp' is not a valid Proto"),
    ('{"t": 1.0, "kind": "host_event", "data": {"host": "h1", "table": "interfaces", '
     '"action": "changed", "payload": {"_kind": "interface", "host": "h1", '
     '"addr": "10.0.0.1"}, "event_time": 1.0}}', "ValueError"),
    ('{"t": Infinity, "kind": "host_up", "data": {"host": "h1"}}', "finite"),
    ('{"t": 1.0, "kind": "flow", "data": {"ts": 1.0, "uid": "F1", "orig_h": null, '
     '"orig_p": 1, "resp_h": "10.0.0.2", "resp_p": 2, "proto": "tcp"}}',
     "ValueError: orig_h"),
    ('{"t": 1.0, "kind": "flow", "data": {"ts": 1.0, "uid": "F1", "orig_h": "10.0.0.1", '
     '"orig_p": 1, "resp_h": 123, "resp_p": 2, "proto": "tcp"}}',
     "ValueError: resp_h"),
    ('{"t": 1.0, "kind": "flow", "data": {"ts": 1.0, "uid": null, "orig_h": "10.0.0.1", '
     '"orig_p": 1, "resp_h": "10.0.0.2", "resp_p": 2, "proto": "tcp"}}',
     "ValueError: uid"),
    ('{"t": 1.0, "kind": "flow", "data": {"ts": NaN, "uid": "F1", "orig_h": "10.0.0.1", '
     '"orig_p": 1, "resp_h": "10.0.0.2", "resp_p": 2, "proto": "tcp", '
     '"duration": Infinity}}', "ValueError: ts"),
    ('{"t": 1.0, "kind": "flow", "data": {"ts": 1.0, "uid": "F1", "orig_h": "10.0.0.1", '
     '"orig_p": 1, "resp_h": "10.0.0.2", "resp_p": 2, "proto": "tcp", '
     '"duration": Infinity}}', "ValueError: duration"),
    ('{"t": 1.0, "kind": "download", "data": {"ts": 1.0, "sha256": 5, '
     '"orig_h": "10.0.0.1", "orig_p": 1, "resp_h": "10.0.0.2", "resp_p": 80, '
     '"proto": "tcp"}}', "ValueError: sha256"),
    ('{"t": 1.0, "kind": "download", "data": {"ts": 1.0, "sha256": "ab", '
     '"orig_h": null, "orig_p": 1, "resp_h": "10.0.0.2", "resp_p": 80, '
     '"proto": "tcp"}}', "ValueError: orig_h"),
    ('{"t": 1.0, "kind": "download", "data": {"ts": NaN, "sha256": "ab", '
     '"orig_h": "10.0.0.1", "orig_p": 1, "resp_h": "10.0.0.2", "resp_p": 80, '
     '"proto": "tcp"}}', "ValueError: ts"),
])
def test_replay_refuses_malformed_entry(tmp_path, capsys, entry, cause):
    bad = tmp_path / "inputs.log"
    bad.write_text("#flowlink inputs v1\n"
                   '{"t": 0.5, "kind": "host_up", "data": {"host": "h1"}}\n'
                   f"{entry}\n")
    assert main(["replay", "--inputs", str(bad),
                 "--log-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "entry 2" in err and cause in err


def test_replay_converts_numeric_text_in_a_flow_entry(tmp_path):
    inputs = tmp_path / "inputs.log"
    inputs.write_text(
        "#flowlink inputs v1\n"
        '{"t": 1.0, "kind": "flow", "data": {"ts": 1.0, "uid": "F1", "orig_h": "10.0.0.1", '
        '"orig_p": "1", "resp_h": "10.0.0.2", "resp_p": 2, "proto": "tcp", '
        '"duration": "0.5"}}\n')
    out = tmp_path / "out"
    assert main(["replay", "--inputs", str(inputs), "--log-dir", str(out)]) == 0
    (row,) = _enriched_rows(out / "conn.log")
    assert row["duration"] == "0.500000" and row["orig_p"] == "1"


def test_refused_replay_leaves_earlier_logs_untouched(tmp_path, capsys):
    bad = tmp_path / "inputs.log"
    bad.write_text("#flowlink inputs v1\n"
                   '{"t": 0.5, "kind": "host_up", "data": {"host": "h1"}}\n'
                   "[1, 2]\n")
    out = tmp_path / "out"
    out.mkdir()
    earlier = {"conn.log": b"earlier flows\n", "alerts.log": b"earlier alerts\n"}
    for name, data in earlier.items():
        (out / name).write_bytes(data)
    assert main(["replay", "--inputs", str(bad), "--log-dir", str(out)]) == 2
    assert "entry 2" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier


def _recording(path, hosts: int, duration: int) -> list[str]:
    assert main(["sim", "--hosts", str(hosts), "--duration", str(duration),
                 "--rate", "4", "--seed", "3", "--log-dir", str(path),
                 "--record"]) == 0
    return _read(path / "inputs.log").splitlines(True)


def test_replay_refused_halfway_leaves_earlier_logs_untouched(tmp_path, capsys):
    lines = _recording(tmp_path / "rec", 10, 80)
    # the first flow from entry 3000 on gets a bad start time; entry i is
    # lines[i], after the header
    bad = next(i for i in range(3000, len(lines))
               if json.loads(lines[i])["kind"] == "flow")
    assert sum(json.loads(line)["kind"] == "flow" for line in lines[1:bad]) > 50
    entry = json.loads(lines[bad])
    entry["data"]["ts"] = "abc"
    lines[bad] = json.dumps(entry) + "\n"
    inputs = tmp_path / "inputs.log"
    inputs.write_text("".join(lines))
    out = tmp_path / "out"
    out.mkdir()
    earlier = {"conn.log": b"earlier flows\n", "alerts.log": b"earlier alerts\n"}
    for name, data in earlier.items():
        (out / name).write_bytes(data)
    capsys.readouterr()
    assert main(["replay", "--inputs", str(inputs), "--log-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"inputs entry {bad}: ValueError" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier


def test_replay_starts_the_clock_at_the_first_entry(tmp_path):
    """A recording stamped in epoch seconds replays at once, not after the
    loop has ticked from 0 up to its first entry."""
    lines = _recording(tmp_path / "rec", 2, 8)
    shifted = [lines[0]]
    for line in lines[1:]:
        entry = json.loads(line)
        entry["t"] += 1.79e9
        shifted.append(json.dumps(entry) + "\n")
    inputs = tmp_path / "inputs.log"
    inputs.write_text("".join(shifted))
    flows = [json.loads(line)["data"]["uid"] for line in lines[1:]
             if json.loads(line)["kind"] == "flow"]
    started = time.monotonic()
    assert _main_in_thread(["replay", "--inputs", str(inputs),
                            "--log-dir", str(tmp_path / "out")], 30) == 0
    assert time.monotonic() - started < 30
    rows = _enriched_rows(tmp_path / "out" / "conn.log")
    assert flows and sorted(r["uid"] for r in rows) == sorted(flows)


def test_replay_names_the_line_of_bad_json(tmp_path, capsys):
    bad = tmp_path / "inputs.log"
    bad.write_text("#flowlink inputs v1\n"
                   '{"t": 0.5, "kind": "host_up", "data": {"host": "h1"}}\n'
                   '{"t": 0.6, "kind": "host_down", "data": {"host": "h1"}}\n'
                   "{bad json\n")
    assert main(["replay", "--inputs", str(bad),
                 "--log-dir", str(tmp_path / "out")]) == 2
    assert "line 4" in capsys.readouterr().err


# --- run ----------------------------------------------------------------------------


def test_run_ingests_flow_file_and_accounts_for_every_record(tmp_path):
    flows = tmp_path / "flows.log"
    flows.write_text(
        "#flowlink flow-log v1\n"
        "#fields\tts\tuid\torig_h\torig_p\tresp_h\tresp_p\tproto\tduration\t"
        "orig_bytes\tresp_bytes\torig_pkts\tresp_pkts\n"
        "10.0\tW1\t192.0.2.1\t5000\t198.51.100.2\t80\ttcp\t1.0\t1\t2\t3\t4\n"
        "11.0\tW2\t192.0.2.1\t5001\t198.51.100.2\t443\ttcp\t1.0\t1\t2\t3\t4\n")
    log_dir = tmp_path / "logs"
    assert main(["run", "--log-dir", str(log_dir), "--flows", str(flows),
                 "--duration", "10"]) == 0
    rows = _enriched_rows(log_dir / "conn.log")
    assert sorted(r["uid"] for r in rows) == ["W1", "W2"]
    # no telemetry exists for these addresses, so both land unattributed
    assert {r["status"] for r in rows} == {"unattributed"}


def test_run_idles_without_flow_source(tmp_path):
    log_dir = tmp_path / "logs"
    assert main(["run", "--log-dir", str(log_dir),
                 "--duration", "0.4"]) == 0
    assert _enriched_rows(log_dir / "conn.log") == []
    assert (log_dir / "alerts.log").exists()
    # shutdown leaves a final metrics snapshot even when no periodic tick ran
    snap = json.loads((log_dir / "metrics.json").read_text())
    assert snap["per_proto"]["tcp"]["flows"] == 0


def test_run_with_embedded_fleet_attributes_live_flows(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "engine": {"log_dir": str(tmp_path / "logs")},
        "workload": {"hosts": 3, "duration": 2.0, "event_rate": 2.0,
                     "flow_coupling": 1.0, "seed": 3},
    }))
    assert main(["run", "--config", str(cfg), "--duration", "3.5"]) == 0
    rows = _enriched_rows(tmp_path / "logs" / "conn.log")
    assert rows, "fleet flows should reach the enriched log"
    assert all(r["status"] == "unique" for r in rows)
    assert all(r["orig_pids"] != "-" for r in rows)


def _run_feeding(tmp_path, stream: bytes):
    """`run` for 3 s with a TCP flow feed that receives `stream` on one
    connection; returns run's exit code."""
    port = _free_port()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"listen_port": port,
                               "log_dir": str(tmp_path / "logs")}))
    result = {}
    th = threading.Thread(
        target=lambda: result.update(
            code=main(["run", "--config", str(cfg), "--duration", "3"])))
    th.start()
    deadline = time.monotonic() + 2.5
    sock = None
    while time.monotonic() < deadline:
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=0.2)
            break
        except OSError:
            time.sleep(0.05)
    assert sock is not None, "flow feed never came up"
    sock.sendall(stream)
    sock.close()
    th.join(timeout=10)
    assert not th.is_alive()
    return result["code"]


def test_run_tcp_feed(tmp_path):
    assert _run_feeding(
        tmp_path,
        b"#flowlink flow-log v1\n"
        b"#fields\tts\tuid\torig_h\torig_p\tresp_h\tresp_p\tproto\tduration\t"
        b"orig_bytes\tresp_bytes\torig_pkts\tresp_pkts\n"
        b"5.0\tT1\t192.0.2.9\t400\t198.51.100.2\t80\ttcp\t0.5\t0\t0\t0\t0\n") == 0
    rows = _enriched_rows(tmp_path / "logs" / "conn.log")
    assert [r["uid"] for r in rows] == ["T1"]


def test_run_tcp_feed_reports_a_malformed_stream(tmp_path, capsys):
    assert _run_feeding(tmp_path, b"not a flow log\n") == 0
    (line,) = [line for line in capsys.readouterr().err.splitlines()
               if line.startswith("error:")]
    assert line.startswith("error: flow feed 127.0.0.1:")
    assert "missing #flowlink header" in line
    assert _enriched_rows(tmp_path / "logs" / "conn.log") == []


def test_run_reports_invalid_config_with_field_name(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verification_interval": -5}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert "verification_interval" in capsys.readouterr().err


def test_run_rejects_out_of_range_metrics_port_before_opening_logs(tmp_path, capsys):
    log_dir = tmp_path / "logs"
    assert main(["run", "--log-dir", str(log_dir), "--metrics-port", "70000",
                 "--duration", "1"]) == 2
    assert "metrics_port" in capsys.readouterr().err
    assert not log_dir.exists()


@pytest.mark.parametrize("interval", ["0", "-0.5", "nan"])
def test_run_rejects_non_positive_metrics_interval_before_opening_logs(
        tmp_path, capsys, interval):
    log_dir = tmp_path / "logs"
    assert _main_in_thread(["run", "--log-dir", str(log_dir), "--metrics-interval",
                            interval, "--duration", "1"], 10) == 2
    assert "--metrics-interval" in capsys.readouterr().err
    assert not log_dir.exists()


@pytest.mark.parametrize("duration", ["0", "-1", "nan"])
def test_run_rejects_non_positive_duration_before_opening_logs(
        tmp_path, capsys, duration):
    log_dir = tmp_path / "logs"
    assert _main_in_thread(["run", "--log-dir", str(log_dir),
                            "--duration", duration], 10) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: --duration ")
    assert not log_dir.exists()


def test_run_writes_metrics_file_while_running(tmp_path):
    metrics = tmp_path / "logs" / "metrics.json"
    seen = {}

    def wait_for_snapshot():
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and not metrics.exists():
            time.sleep(0.05)
        seen["snapshot"] = metrics.exists()

    # --duration outlasts the wait, so a file found there is a periodic one
    assert _main_in_thread(["run", "--log-dir", str(tmp_path / "logs"),
                            "--metrics-interval", "0.3", "--duration", "3"], 15,
                           wait_for_snapshot) == 0
    assert seen["snapshot"]
    assert json.loads(metrics.read_text())["per_proto"]["tcp"]["flows"] == 0


def test_run_reports_busy_port(tmp_path, capsys):
    keeper = socket.socket()
    keeper.bind(("127.0.0.1", 0))
    keeper.listen(1)
    port = keeper.getsockname()[1]
    try:
        assert main(["run", "--log-dir", str(tmp_path / "logs"),
                     "--metrics-port", str(port), "--duration", "1"]) == 2
        assert "bind" in capsys.readouterr().err
    finally:
        keeper.close()


def test_run_busy_feed_port_exits_2_after_starting_metrics(tmp_path, capsys):
    keeper = socket.socket()
    keeper.bind(("127.0.0.1", 0))
    keeper.listen(1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"listen_port": keeper.getsockname()[1],
                               "log_dir": str(tmp_path / "logs")}))
    try:
        assert _main_in_thread(["run", "--config", str(cfg), "--metrics-port",
                                str(_free_port()), "--duration", "1"], 10) == 2
    finally:
        keeper.close()
    assert "bind" in capsys.readouterr().err


def test_run_ingests_last_row_without_newline(tmp_path):
    flows = tmp_path / "flows.log"
    flows.write_text(
        FLOW_HEADER
        + "10.0\tN1\t192.0.2.1\t5000\t198.51.100.2\t80\ttcp\t1.0\t1\t2\t3\t4\n"
        + "11.0\tN2\t192.0.2.1\t5001\t198.51.100.2\t443\ttcp\t1.0\t1\t2\t3\t4")
    log_dir = tmp_path / "logs"
    assert _main_in_thread(["run", "--log-dir", str(log_dir), "--flows", str(flows),
                            "--duration", "10"], 20) == 0
    assert sorted(r["uid"] for r in _enriched_rows(log_dir / "conn.log")) == ["N1", "N2"]


def test_run_invalid_workload_leaves_earlier_logs_untouched(tmp_path, capsys):
    log_dir = tmp_path / "logs"
    log_dir.mkdir()
    (log_dir / "conn.log").write_text("earlier run\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"engine": {"log_dir": str(log_dir)},
                               "workload": {"hostz": 3}}))
    assert _main_in_thread(["run", "--config", str(cfg), "--duration", "1"], 10) == 2
    assert "hostz" in capsys.readouterr().err
    assert (log_dir / "conn.log").read_text() == "earlier run\n"
    assert not (log_dir / "alerts.log").exists()


def test_run_follow_ingests_a_row_appended_in_two_writes_once(tmp_path):
    flows = tmp_path / "flows.log"
    flows.write_text(FLOW_HEADER)
    row = "10.0\tA1\t192.0.2.1\t5000\t198.51.100.2\t80\ttcp\t1.0\t1\t2\t3\t4\n"
    log_dir = tmp_path / "logs"

    def append_in_two_writes():
        for part in (row[:20], row[20:]):
            time.sleep(0.6)  # longer than the tail's poll, so the reader sees each part
            with open(flows, "a", encoding="utf-8") as fh:
                fh.write(part)

    assert _main_in_thread(["run", "--log-dir", str(log_dir), "--flows", str(flows),
                            "--follow", "--duration", "2.5"], 15,
                           append_in_two_writes) == 0
    assert [r["uid"] for r in _enriched_rows(log_dir / "conn.log")] == ["A1"]


# --- bench / dump-state ---------------------------------------------------------------


def test_bench_cli_writes_machine_readable_report(tmp_path):
    out = tmp_path / "report.json"
    assert main(["bench", "--hosts", "2", "--seconds", "1",
                 "--memory-hosts", "5,10", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["version"] == "bench-report v1"
    assert report["throughput"]["hosts"] == 2
    assert report["memory"]["slope_bytes_per_host"] > 0


@pytest.mark.parametrize("argv", [
    ["--rate", "0"], ["--memory-hosts", "1,x"], ["--memory-hosts", "100"],
    ["--memory-hosts", "0,5"], ["--hosts", "-1"], ["--seconds", "0"],
    ["--seconds", "inf"], ["--rate", "inf"],
], ids=" ".join)
def test_bench_rejects_bad_argument_before_running(monkeypatch, capsys, argv):
    def must_not_run(**_kw):
        raise AssertionError("bench ran despite a bad argument")
    monkeypatch.setattr("flowlink.cli.run_bench", must_not_run)
    assert main(["bench", "--seconds", "1", *argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {argv[0]} ")


def test_malformed_bench_seconds_variable_only_stops_bench(monkeypatch, tmp_path,
                                                            capsys):
    monkeypatch.setenv("FLOWLINK_BENCH_SECONDS", "ten")
    assert main(["sim", "--hosts", "2", "--duration", "5",
                 "--log-dir", str(tmp_path / "logs")]) == 0
    capsys.readouterr()
    monkeypatch.setattr("flowlink.cli.run_bench", lambda **_kw: pytest.fail(
        "bench ran despite a bad --seconds default"))
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "--seconds" in capsys.readouterr().err


def test_dump_state_reports_unreachable_endpoint(capsys):
    port = _free_port()
    assert main(["dump-state", "--port", str(port), "--timeout", "0.3"]) == 2
    assert "cannot reach" in capsys.readouterr().err


def test_alert_log_stays_headed_and_json(tmp_path):
    log_dir = tmp_path / "logs"
    assert main(["sim", "--hosts", "2", "--duration", "8", "--rate", "2",
                 "--seed", "11", "--log-dir", str(log_dir)]) == 0
    with open(log_dir / "alerts.log", encoding="utf-8") as fh:
        assert list(read_alerts(iter(fh))) == []
