"""Run the altkit command line in this process with the span recorder on.

    PERFBENCH_SPANS=spans.json PERFBENCH_TRACE=0|1 python3 perfbench/cli_shim.py <altkit args>

It behaves as the ``altkit`` entry point (same argv, stdin, stdout and
exit code) and also writes the spans of the command's library calls to
``PERFBENCH_SPANS``, whatever the command's outcome.
"""

import json
import os
import sys

from spans import Recorder


def main() -> int:
    recorder = Recorder(traced=os.environ.get("PERFBENCH_TRACE") == "1")
    import altkit.cli

    recorder.install(cli=True)
    recorder.op = "cli"
    try:
        return altkit.cli.main(sys.argv[1:])
    finally:
        recorder.op = None
        recorder.restore()
        out = os.environ.get("PERFBENCH_SPANS")
        if out:
            with open(out, "w") as fh:
                json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
