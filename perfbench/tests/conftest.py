import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parent.parent
for p in (_BENCH.parent / "src", _BENCH):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))
