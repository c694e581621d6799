"""``python -m isicap``: the command-line front end in isicap.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
