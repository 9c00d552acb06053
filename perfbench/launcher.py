"""Traced stand-in for `python -m llgeo.cli`.

    python3 perfbench/launcher.py SPANS_DIR <llgeo subcommand and flags>

Imports llgeo.cli (timing the import), installs the tracer's wrappers,
runs llgeo.cli.main on the remaining arguments, removes the wrappers and
writes the spans to SPANS_DIR/spans-<pid>.npz.  Exits with main's code.
"""

import os
import sys
from time import perf_counter

t0 = perf_counter()
import llgeo.cli  # noqa: E402  (the import is what is being timed)

import_s = perf_counter() - t0

from tracer import Tracer  # noqa: E402


def main():
    spans_dir, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = -1   # stays -1 if main raises
    try:
        code = llgeo.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.spans().save(os.path.join(spans_dir, f"spans-{os.getpid()}.npz"),
                            import_s=import_s, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main())
