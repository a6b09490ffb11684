"""python -m cfsim: the same command-line interface as the cfsim script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
