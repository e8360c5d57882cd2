"""``python -m splitrate``: the command line of :mod:`splitrate.cli`."""

import sys

from .cli import main

sys.exit(main())
