"""``python -m repro.cluster.worker`` with every layer wrapped in spans.

Usage::

    python perfbench/traced_worker.py --spans PATH <repro.cluster.worker args>

Runs the worker unchanged; when it returns (the service went away), the
recorded spans are written to PATH.
"""

import argparse
import sys

import layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", required=True)
    args, worker_argv = parser.parse_known_args()

    from repro.cluster import worker

    recorder = layers.Recorder()
    layers.install(recorder)
    try:
        return worker.main(worker_argv)
    finally:
        recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
