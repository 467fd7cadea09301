"""``python -m qvertex``: the command-line front end (see qvertex.cli)."""

import sys

from .cli import main

sys.exit(main())
