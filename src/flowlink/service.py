"""Operational surface for a running engine: a local HTTP endpoint serving
counters and state dumps, a TCP flow feed, and metrics snapshots to a file.

GET /metrics      flattened plain-text counters, one "name value" per line
GET /metrics.json the full nested snapshot as JSON
GET /state        connected hosts and every held state record as JSON
"""

from __future__ import annotations

import io
import json
import os
import socketserver
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .flowlog import LogFormatError, read_flows


def flatten_metrics(tree: dict, prefix: str = "") -> list[str]:
    """Dotted-key "name value" lines, sorted, from a nested snapshot."""
    lines = []
    for key, value in tree.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            lines.extend(flatten_metrics(value, name))
        elif isinstance(value, (list, tuple)):
            lines.append(f"{name} {json.dumps(value, sort_keys=True)}")
        else:
            lines.append(f"{name} {value}")
    return sorted(lines)


class MetricsServer:
    """Serves engine introspection over HTTP on a background thread."""

    def __init__(self, engine, host: str = "127.0.0.1", port: int = 0):
        self.engine = engine

        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server API
                if self.path == "/metrics":
                    body = "\n".join(
                        flatten_metrics(outer.engine.metrics_snapshot())) + "\n"
                    self._reply(body, "text/plain; charset=utf-8")
                elif self.path == "/metrics.json":
                    body = json.dumps(outer.engine.metrics_snapshot(),
                                      sort_keys=True, indent=1) + "\n"
                    self._reply(body, "application/json")
                elif self.path == "/state":
                    body = json.dumps(outer.engine.state_dump(),
                                      sort_keys=True, indent=1) + "\n"
                    self._reply(body, "application/json")
                else:
                    self.send_error(404, "unknown path")

            def _reply(self, body: str, content_type: str) -> None:
                data = body.encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, fmt, *args):  # quiet by default
                pass

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="flowlink-metrics", daemon=True)

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def start(self) -> "MetricsServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)


class FlowFeedServer:
    """TCP flow feed: each connection carries one flow-log v1 stream (two
    header lines, then tab-separated rows), delivered to `sink` in order.
    A malformed stream drops that connection, with one `error: flow feed`
    line on stderr naming the peer; prior rows stand."""

    def __init__(self, sink, host: str = "127.0.0.1", port: int = 0):
        self.sink = sink
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                text = io.TextIOWrapper(self.rfile, encoding="utf-8")
                try:
                    for record in read_flows(iter(text)):
                        outer.sink(record)
                except (LogFormatError, UnicodeDecodeError) as exc:
                    addr, port = self.client_address[:2]
                    print(f"error: flow feed {addr}:{port}: {exc}",
                          file=sys.stderr)

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._srv = Server((host, port), Handler)
        self._thread = threading.Thread(target=self._srv.serve_forever,
                                        name="flowlink-flow-feed", daemon=True)

    @property
    def port(self) -> int:
        return self._srv.server_address[1]

    def start(self) -> "FlowFeedServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._srv.shutdown()
        self._srv.server_close()
        self._thread.join(timeout=5.0)


def write_metrics_snapshot(engine, path: str) -> None:
    """Write the current metrics snapshot to `path` (atomic replace)."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(engine.metrics_snapshot(), fh, sort_keys=True, indent=1)
        fh.write("\n")
    os.replace(tmp, path)
