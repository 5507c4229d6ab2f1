"""``python -m netcov``: the same entry point as the ``netcov`` script."""

import sys

from .cli import main

sys.exit(main())
