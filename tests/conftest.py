"""Test configuration: test the checkout's ``src/`` (ahead of any installed
copy of the package) and make the in-tree oracle module importable."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))
