"""Entry point for ``python -m benchmarks.e2e`` and for
``python3 benchmarks/e2e/__main__.py`` (the form ``BENCHMARK.json`` names,
which is not run as part of a package and so adds the repository root to
the import path itself)."""

import os
import sys

if not __package__:
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))))

from benchmarks.e2e.cli import main  # noqa: E402

sys.exit(main())
