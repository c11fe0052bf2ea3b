"""`python -m quatlink run ...`: the same front end as the `quatlink` command."""

import sys

from .cli import main

sys.exit(main())
