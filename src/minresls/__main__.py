"""``python -m minresls``: the same command line as the ``minresls`` script."""
import sys

from .cli import main

sys.exit(main())
