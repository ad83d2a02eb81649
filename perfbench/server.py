"""One serving process of the benchmark: a primary or a warm standby.

Started by ``run.py`` as ``python3 perfbench/server.py '<config json>'``.
It boots :class:`repro.service.Service` with ``start_in_background`` (a
standby also gets a :class:`repro.cluster.StandbyServer`, and a primary
given a standby address attaches a :class:`repro.cluster.ReplicationLink`
to it), prints one JSON line with its ports, then answers one JSON line
per command read from stdin:

``trace_on``   install the layer wrappers (``layers.py``)
``trace_off``  remove them, write the raw spans, reply with the summary
``info``       peak and current RSS, bytes under the data directory
``cpu``        CPU seconds of the whole process so far, and the CPU time of
               each request's handler thread since the last ``cpu`` call

CPU time leaves out the time the host takes the virtual CPU away (steal),
which on a shared host moves wall-clock figures by up to 1.9x between
minutes; ``run.py`` builds its end-to-end figures from it.

At the end of its input it shuts down and exits.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import process_time, thread_time
from typing import Any, Dict, List, Optional

from common import proc_status, use_source

use_source()

from repro.api import ExecutionPolicy  # noqa: E402
from repro.cluster import ReplicationLink, start_standby  # noqa: E402
from repro.cluster.replica import standby_store  # noqa: E402
from repro.service import Service, start_in_background  # noqa: E402

import layers  # noqa: E402


def reply(payload: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def disk_usage(data_dir: Optional[str]) -> Dict[str, int]:
    usage = {"wal_bytes": 0, "checkpoint_bytes": 0, "disk_bytes": 0}
    if data_dir is None:
        return usage
    for path in Path(data_dir).rglob("*"):
        if path.is_file():
            size = path.stat().st_size
            usage["disk_bytes"] += size
            if path.suffix == ".wal":
                usage["wal_bytes"] += size
            elif path.suffix == ".ckpt":
                usage["checkpoint_bytes"] += size
    return usage


class RequestCPU:
    """Times the handler thread of every request the server answers.

    ``ThreadingHTTPServer`` runs each connection (one request: the front
    end closes after each response) in a thread of its own, started with
    ``process_request_thread`` looked up on the server object, so the
    wrapper sees request parsing, the handler and the response write.
    """

    def __init__(self, server: Any) -> None:
        self.values: List[float] = []
        original = server.process_request_thread

        def timed(request: Any, client_address: Any) -> None:
            began = thread_time()
            try:
                original(request, client_address)
            finally:
                self.values.append(thread_time() - began)

        server.process_request_thread = timed

    def take(self) -> Dict[str, Any]:
        values, self.values = self.values, []
        return {"process_s": process_time(), "request_s": values}


def main() -> None:
    config = json.loads(sys.argv[1])
    policy = ExecutionPolicy(backend=config["backend"])
    standby = link = None
    booted: Dict[str, Any] = {}
    if config["role"] == "standby":
        store = standby_store(size=config["size"], policy=policy)
        standby, _ = start_standby(store)
        service = Service(store=store)
        booted["replication"] = standby.address
    else:
        service = Service(
            size=config["size"],
            policy=policy,
            data_dir=config.get("data_dir"),
            fsync_every=config.get("fsync_every"),
            checkpoint_every=config.get("checkpoint_every"),
            sync_replicas=0,
        )
        if config.get("standby"):
            link = ReplicationLink(config["standby"])
            link.attach(service.store)
    http, _ = start_in_background(service)
    cpu = RequestCPU(http)
    reply({"port": http.port, **booted})

    tracer: Optional[layers.Tracer] = None
    try:
        for line in sys.stdin:
            command = json.loads(line)
            name = command["cmd"]
            if name == "trace_on":
                tracer = layers.Tracer()
                boundaries = (
                    layers.STANDBY
                    if config["role"] == "standby"
                    else layers.server_boundaries(service.store)
                )
                tracer.install(boundaries)
                reply({"ok": True})
            elif name == "trace_off":
                assert tracer is not None
                tracer.uninstall()
                summary = tracer.summary()
                tracer.dump(Path(command["spans"]))
                tracer = None
                reply(summary)
            elif name == "cpu":
                reply(cpu.take())
            elif name == "info":
                reply({**proc_status(), **disk_usage(config.get("data_dir"))})
    finally:
        if tracer is not None:
            tracer.uninstall()
        http.shutdown()
        http.server_close()
        if link is not None:
            link.detach()
        if standby is not None:
            standby.shutdown()
            standby.server_close()
        service.close()
    reply({"ok": True})


if __name__ == "__main__":
    main()
