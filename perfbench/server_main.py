"""Process under test of the api_* workloads: the reference service behind
its stdlib HTTP adapter, on an ephemeral loopback port.

    python server_main.py --journal PATH --key PATH [--trace-out PATH [--trace-sample K]]

Prints ``PORT <n>`` once it listens and serves until its standard input
closes. With ``--trace-out`` it wraps the layer entry points before building
the service, records the spans of one request in K, and writes them to that
file on the way out.
"""

from __future__ import annotations

import argparse
import sys
import threading


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--journal", required=True)
    parser.add_argument("--key", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--trace-sample", type=int, default=1)
    args = parser.parse_args()

    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer(args.trace_sample)
        tracing.install_service(tracer)

    from bola_guard.service import ReferenceService, ServiceConfig, make_server

    service = ReferenceService.from_config(
        ServiceConfig(port=0, key_path=args.key, journal_path=args.journal))
    server = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, name="serve", daemon=True)
    thread.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        if tracer is not None:
            tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
