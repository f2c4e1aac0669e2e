"""``python -m rosenau`` runs the command-line interface, like the ``rosenau`` script."""

import sys

from .cli import main

sys.exit(main())
