"""The repository's benchmark: query text to delivered answer.

Run ``python -m benchmarks.e2e --seed 42 --out result.json`` from the
repository root for every workload, or see README.md beside this file.
The program under test is the source tree's ``src/repro``; importing this
package puts it on ``sys.path`` so no installation or ``PYTHONPATH`` is
needed.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
_SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(_SRC, "repro")):
    raise ImportError(f"nothing to measure: {_SRC}/repro does not exist")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
