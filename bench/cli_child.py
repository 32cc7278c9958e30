"""Run one `flaghg` command line with the layer spans installed.

Usage: python3 bench/cli_child.py SPANS_JSON ARGV...

run.py starts this in place of `python -m flaghg` for each job of a traced
`cli_warm` pass.  It imports the package from PYTHONPATH and times that
import, wraps the layers, runs `flaghg.cli.main(ARGV)` and writes the
import time and the spans to SPANS_JSON.
"""

import json
import sys
import time
from pathlib import Path

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import flaghg.cli
    import_s = time.perf_counter() - start
    recorder = spans.Recorder()
    spans.install(recorder)
    code = flaghg.cli.main(argv)
    Path(out_path).write_text(json.dumps({
        "import_s": import_s,
        "flaghg_file": flaghg.cli.__file__,
        "spans": recorder.to_json(),
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
