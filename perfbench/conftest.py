"""Make the program's sources importable for the benchmark's own tests
(``python3 -m pytest perfbench`` from the root of a checkout)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
