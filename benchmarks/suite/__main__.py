"""``python -m benchmarks.suite``: the whole suite (see run.py)."""

import sys

from benchmarks.suite.run import main

sys.exit(main())
