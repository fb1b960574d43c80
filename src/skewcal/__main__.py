"""``python -m skewcal``: the command line front end of :mod:`skewcal.cli`."""
import sys

from .cli import main

sys.exit(main())
