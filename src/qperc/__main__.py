"""`python -m qperc`: the same command line as the installed `qperc` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
