"""Record the reference reports that the catalog and isometry checks compare.

    python3 perfbench/record_golden.py

Runs every catalog and isometry job once through the CLI of the checkout's
``src/`` and writes the parsed reports to golden/reports.json.gz.  The
committed file was recorded from the seed commit; re-record only when a
change to the JSON output is intended, and say so in the change.
"""

import gzip
import json
import os
import subprocess
import sys

from workloads import GOLDEN_PATH, catalog_commands, isometry_commands

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def report(argv, extra_env=None):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.update(extra_env or {})
    done = subprocess.run([sys.executable, "-m", "voaplus"] + list(argv),
                          env=env, capture_output=True, check=True,
                          timeout=300)
    return json.loads(done.stdout)


def main():
    golden = {"catalog": {}, "isometry": {}}
    for _, spec, argv in catalog_commands():
        golden["catalog"][spec] = report(argv)
    for spec, argv, env in isometry_commands():
        golden["isometry"][spec] = report(argv, env)
    with gzip.GzipFile(GOLDEN_PATH, "wb", mtime=0) as fh:
        fh.write(json.dumps(golden, sort_keys=True,
                            separators=(",", ":")).encode("utf-8"))


if __name__ == "__main__":
    main()
