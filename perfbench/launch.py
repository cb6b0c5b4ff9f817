"""Run one cfpolicy command in this process, as ``python -m cfpolicy.cli`` does.

Usage::

    python launch.py --stamp FILE [--trace FILE] -- [CLI ARGS...]

``src`` must be on ``PYTHONPATH``. The CLOCK_MONOTONIC time at which
``cfpolicy.cli.main`` is entered goes to the stamp file, so the parent can
measure start-up (process spawn until main). With ``--trace`` the span
wrappers of ``tracer.py`` are installed before main is entered, and the
trace is written when the command ends.
"""

import sys
import time
from pathlib import Path


def main() -> int:
    argv = sys.argv[1:]
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    stamp = Path(opts[opts.index("--stamp") + 1])
    trace = Path(opts[opts.index("--trace") + 1]) if "--trace" in opts else None

    from cfpolicy import cli

    if trace is None:
        stamp.write_text(repr(time.monotonic()))
        return cli.main(cli_args)

    import tracer

    spans = tracer.Tracer()
    spans.install()
    stamp.write_text(repr(time.monotonic()))
    return spans.run(cli_args, trace)


if __name__ == "__main__":
    sys.exit(main())
