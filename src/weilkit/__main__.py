"""``python -m weilkit``: the same command line as the ``weilkit`` script."""

import sys

from .cli import main

sys.exit(main())
