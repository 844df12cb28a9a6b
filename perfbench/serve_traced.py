"""``repro serve`` with the benchmark's timing wrappers installed.

Used for the traced serve-mixed run only: it installs the wrappers of
``tracing.py``, runs the server exactly as ``python -m repro serve`` does
until SIGTERM, then prints the server-side span totals and set-up layer
figures as the last stdout line.
"""

from __future__ import annotations

import sys

from common import emit
from tracing import Recorder, install, layer_totals, process_layers


def main() -> int:
    rec = install(Recorder())
    from repro.cli import main as cli_main

    code = cli_main(["serve", *sys.argv[1:]])
    emit({"exit_code": code, "totals": layer_totals(rec.spans), "layers": process_layers(rec)})
    return code


if __name__ == "__main__":
    sys.exit(main())
