"""`python -m coeffmod`: the command-line interface of coeffmod.cli."""

import sys

from coeffmod.cli import main

if __name__ == "__main__":
    sys.exit(main())
