"""``python -m gase``: the same command line as the ``gase`` console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
