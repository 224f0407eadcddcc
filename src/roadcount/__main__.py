"""`python -m roadcount`: the same command as the installed `roadcount` script."""

import sys

from .cli import main

sys.exit(main())
