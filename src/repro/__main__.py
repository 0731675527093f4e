"""``python -m repro``: the command line of :mod:`repro.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
