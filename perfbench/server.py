"""The service process of an untraced run.

``python3 -m perfbench.server '<ServiceConfig kwargs as JSON>'`` builds
``ProvenanceHTTPServer(config=ServiceConfig(...))`` on a free port with
observability off (``repro serve`` would enable metrics and an event
ring), prints one JSON line ``{"url": ..., "admin_token": ...}`` and
serves until SIGTERM, on which it closes its stores and exits 0.
"""

from __future__ import annotations

import json
import signal
import sys


def main(argv) -> int:
    from repro.service.core import ServiceConfig
    from repro.service.http import ProvenanceHTTPServer

    server = ProvenanceHTTPServer(config=ServiceConfig(**json.loads(argv[0])))

    def stop(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, stop)
    print(json.dumps({
        "url": server.base_url,
        "admin_token": server.service.admin_token,
    }), flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        server.service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
