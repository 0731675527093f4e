"""``python -m repro`` — the unified command-line front door.

One entry point, three subcommands, delegating to the per-subsystem CLIs:

* ``campaign`` — run/resume/inspect persistent exploration campaigns
  (``persist/cli.py``);
* ``distrib``  — the fault-tolerant distributed campaign runner
  (``distrib/cli.py``);
* ``serve``    — the online isolation certifier server
  (``service/cli.py``).

Exit codes are consistent across all subcommands: 0 success, 1 runtime
failure, 2 usage/config error.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

_USAGE = """\
usage: python -m repro <command> [options]

commands:
  campaign   run, resume, and inspect persistent exploration campaigns
  distrib    drive a campaign through the fault-tolerant distributed runner
  serve      run the online isolation certifier server

Run `python -m repro <command> --help` for command options.
"""


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        print(_USAGE, file=sys.stderr, end="")
        return 2
    command, rest = args[0], args[1:]
    if command in ("-h", "--help", "help"):
        print(_USAGE, end="")
        return 0
    if command == "campaign":
        from .persist.cli import main as campaign_main
        return campaign_main(rest)
    if command == "distrib":
        from .distrib.cli import main as distrib_main
        return distrib_main(rest)
    if command == "serve":
        from .service.cli import serve_main
        return serve_main(rest)
    print(f"error: unknown command {command!r}\n", file=sys.stderr)
    print(_USAGE, file=sys.stderr, end="")
    return 2


if __name__ == "__main__":
    sys.exit(main())
