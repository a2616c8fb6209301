"""``python -m featflow``: the same command line as ``featflow``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
