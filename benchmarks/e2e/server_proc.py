"""Child-process server for the wire workloads.

Builds the engine from the public API with every default the harness
does not name (``default_pipe``, ``simulated`` scheduler, plan cache 64,
no process pool), prints one JSON line with the listening port, and
serves until its stdin closes — so the server thread never shares the
load generator's GIL, and an orphaned child exits with its parent.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "src"))

from repro.server import Database, Mserver  # noqa: E402
from repro.storage import Catalog  # noqa: E402
from repro.tpch import populate  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--data-seed", type=int, required=True)
    parser.add_argument("--wal-dir")
    parser.add_argument("--commit-window-ms", type=float, default=2.0)
    parser.add_argument("--checkpoint-interval", type=int, default=0)
    args = parser.parse_args()

    began = time.perf_counter()
    catalog = Catalog()
    populate(catalog, scale_factor=args.scale, seed=args.data_seed)
    populate_s = time.perf_counter() - began
    if args.wal_dir:
        database = Database(
            catalog=catalog, workers=2, wal_dir=args.wal_dir,
            commit_window_ms=args.commit_window_ms,
            checkpoint_interval=args.checkpoint_interval)
    else:
        database = Database(catalog=catalog, workers=2)
    server = Mserver(database).start()
    try:
        print(json.dumps({"port": server.port, "populate_s": populate_s}),
              flush=True)
        sys.stdin.read()  # parent closes the pipe (or dies) to stop us
    finally:
        server.stop()
        database.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
