"""Child-process wrapper: stamp the set-up time, then call ``main(argv)``.

Usage::

    python bench/child.py import|run STAMP MODULE [ARGS...]

Imports MODULE, writes ``time.monotonic()`` to the file STAMP (the
parent subtracts its own monotonic spawn time: ``setup_s``), and with
``run`` exits with ``MODULE.main(ARGS)``.  ``import`` stops after the
stamp, which is how the benchmark samples set-up time on its own.
"""

import importlib
import sys
import time
from pathlib import Path

# Import the traced pass as ``bench.traced`` rather than letting this
# directory shadow top-level modules; the program itself comes from
# src/, which the parent puts on PYTHONPATH.
sys.path[0] = str(Path(__file__).resolve().parent.parent)


def main() -> int:
    mode, stamp, module_name = sys.argv[1:4]
    module = importlib.import_module(module_name)
    with open(stamp, "w", encoding="utf-8") as fh:
        fh.write(repr(time.monotonic()))
    if mode == "import":
        return 0
    return module.main(sys.argv[4:])


if __name__ == "__main__":
    raise SystemExit(main())
