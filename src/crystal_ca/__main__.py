"""`python -m crystal_ca`: the same command line as the crystal-ca script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
