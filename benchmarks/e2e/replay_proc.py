"""Child process for ``steth_replay``: the tool under test.

Generates the dot+trace pairs, prints one JSON line listing them, then
answers each ``{"order": [...], "strict": bool}`` line on stdin with the
per-operation latencies of that round, until stdin closes.  Verification
of each painted display happens here, outside the timed region.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import replay  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()

    files = replay.generate_files(args.dir)
    svg_path = os.path.join(args.dir, "display.svg")
    print(json.dumps({"files": [{"name": f["name"], "nodes": f["nodes"]}
                                for f in files]}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        latencies, failures = [], []
        for index in request["order"]:
            entry = files[index]
            began = time.perf_counter_ns()
            session = replay.replay_op(entry["dot"], entry["trace"],
                                       svg_path)
            latencies.append(time.perf_counter_ns() - began)
            problem = replay.verify_replay(session, svg_path,
                                           entry["nodes"],
                                           request["strict"])
            if problem:
                failures.append(f"{entry['name']}: {problem}")
        print(json.dumps({"lat_ns": latencies, "failures": failures}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
